package repro.core

import scala.collection.mutable

import repro.profile.Profiles

/** Outcome of a goal-oriented search (METAM or a baseline).
  *
  * @param method      name of the search strategy
  * @param solution    selected augmentations
  * @param utility     utility of Γ(D_in, solution)
  * @param queriesUsed fresh utility evaluations spent
  * @param curve       (queries, best-utility-so-far) after every query
  */
final case class SearchResult(
    method: String,
    solution: Vector[Candidate],
    utility: Double,
    queriesUsed: Int,
    curve: Vector[(Int, Double)],
) {
  def utilityAt(q: Int): Double = {
    val upTo = curve.takeWhile(_._1 <= q)
    if (upTo.isEmpty) 0.0 else upTo.last._2
  }

  /** Queries spent until the utility first reached `theta`, if ever. */
  def queriesTo(theta: Double): Option[Int] = curve.find(_._2 >= theta - 1e-9).map(_._1)
}

/** Configuration of Algorithm 1.
  *
  * @param theta     target utility threshold θ
  * @param epsilon   ε-cover radius for CLUSTER-PARTITION (paper default
  *                  0.05; coarser covers merge candidates of different
  *                  utility into one cluster and starve the per-round
  *                  cluster probe — τ is bounded by `tauCap` instead)
  * @param tau       probes per sequential round; ≤0 means the paper's
  *                  default τ = |C| (one probe per cluster), capped at
  *                  `tauCap` so a commit never costs more than tauCap
  *                  queries
  * @param useClustering  ablation switch: false = every candidate is its
  *                  own cluster (variant Nc)
  * @param useThompson    ablation switch: false = clusters ranked with
  *                  equal importance in group sampling (variant Eq)
  * @param groupQuerying  enable the combinatorial (red) mechanism
  * @param minimality     run IDENTIFY-MINIMAL post-processing
  */
final case class MetamConfig(
    theta: Double = 0.95,
    epsilon: Double = 0.05,
    tau: Int = -1,
    tauCap: Int = 25,
    seed: Long = 41,
    useClustering: Boolean = true,
    useThompson: Boolean = true,
    groupQuerying: Boolean = true,
    minimality: Boolean = true,
    groupRoundsPerSize: Int = 8,
    minGain: Double = 1e-9,
    maxSweepSize: Int = 8,
)

/** Algorithm 1: METAM's adaptive interventional querying strategy. */
object Metam {

  def run(
      cands: Vector[Candidate],
      profiles: Profiles,
      util: CountingUtility,
      cfg: MetamConfig = MetamConfig(),
  ): SearchResult = {
    require(cands.nonEmpty, "no candidate augmentations")
    val vectors = cands.map(profiles.of)
    val clustering =
      if (cfg.useClustering) ClusterPartition.cluster(vectors, cfg.epsilon, cfg.seed)
      else ClusterPartition.singletons(cands.length)
    val clusterById: Map[Int, Int] =
      cands.indices.map(i => cands(i).id -> clustering.clusterOf(i)).toMap
    val clusterOf: Candidate => Int = c => clusterById(c.id)
    val membersOf: Int => Vector[Candidate] = {
      val cache = (0 until clustering.nClusters)
        .map(cl => cl -> clustering.members(cl).map(cands(_))).toMap
      cache
    }

    val qs = new QualityScores(profiles, cands, clustering)
    val bandit = new GroupSampler(clustering.nClusters, cfg.seed + 1, cfg.useThompson)
    val tau = if (cfg.tau > 0) cfg.tau else math.min(clustering.nClusters, cfg.tauCap)

    var tStar = Vector.empty[Candidate]
    var tcStar = Vector.empty[Candidate]
    val queriedSingles = mutable.Set.empty[Int] // candidate ids probed as T*+c
    var t = 1
    var groupsAtSize = 0
    var uD = 0.0
    var uTc = 0.0

    try {
      uD = util.baseUtility
      uTc = uD
      var exhausted = false

      while (uD < cfg.theta && uTc < cfg.theta && !exhausted) {
        // ----- sequential mechanism (blue): probe up to τ clusters, then
        // commit the best-gain augmentation.
        val blocked = mutable.Set.empty[Int]
        val probed = mutable.ArrayBuffer.empty[(Candidate, Double)]
        val inSolution = tStar.map(_.id).toSet
        var continue = true
        while (continue) {
          val avail = cands.filter { c =>
            !inSolution.contains(c.id) && !probed.exists(_._1.id == c.id) &&
              !queriedSingles.contains(c.id) && !blocked.contains(clusterOf(c))
          }
          if (avail.isEmpty) continue = false
          else {
            val c = avail.maxBy(x => (qs.score(x), -x.id))
            val u1 = util.query((tStar :+ c).toSet)
            val gain = u1 - uD
            qs.record(c, gain)
            bandit.record(clusterOf(c), gain > cfg.minGain)
            queriedSingles += c.id
            blocked += clusterOf(c)
            probed += ((c, u1))
            val maxU = probed.map(_._2).max
            // A probe that reaches θ ends the round: committing it ends the search.
            continue = (probed.size < tau || maxU <= uD + cfg.minGain) && u1 < cfg.theta
            if (probed.size >= 2 * tau) continue = false // bounded fallback round
          }
        }

        // ----- group mechanism (red): Thompson-sampled size-t subset.
        if (cfg.groupQuerying && uD < cfg.theta) {
          val pools: Int => Vector[Candidate] = cl =>
            membersOf(cl).filterNot(c => tStar.exists(_.id == c.id))
          val g = bandit.sampleGroup(t, pools)
          if (g.nonEmpty) {
            val ug = util.query(g.toSet)
            if (ug > uTc) { tcStar = g; uTc = ug }
            groupsAtSize += 1
            if (groupsAtSize >= cfg.groupRoundsPerSize) { t += 1; groupsAtSize = 0 }
          }
        }

        // ----- commit P'_max if it improves utility.
        if (probed.nonEmpty) {
          val (cb, ub) = probed.maxBy { case (c, u) => (u, -c.id) }
          if (ub > uD + cfg.minGain) {
            tStar = tStar :+ cb
            uD = ub
            // New base dataset: allow re-probing candidates on top of it.
            queriedSingles.clear()
          } else if (cands.forall(c => tStar.exists(_.id == c.id) || queriedSingles.contains(c.id))) {
            exhausted = true
          }
        } else exhausted = true
      }
      // ----- combinatorial sweep (Theorem 3): the adaptive loop exhausted
      // below θ — enumerate subsets in increasing size (candidates ordered
      // by quality score, so promising combinations come first) until θ,
      // the budget, or the size cap. This is what guarantees the optimal
      // solution is found given enough queries.
      if (exhausted && uD < cfg.theta && uTc < cfg.theta && cfg.groupQuerying) {
        val ordered = cands.sortBy(c => (-qs.score(c), c.id))
        var size = 2
        while (size <= math.min(cands.length, cfg.maxSweepSize) && uTc < cfg.theta) {
          val it = ordered.combinations(size)
          while (it.hasNext && uTc < cfg.theta) {
            val g = it.next().toVector
            val ug = util.query(g.toSet)
            if (ug > uTc) { tcStar = g; uTc = ug }
          }
          size += 1
        }
      }
    } catch { case _: BudgetExhausted => () }

    // ----- choose the better of T* and Tc*, then minimise it.
    val uT = safeQuery(util, tStar.toSet).getOrElse(0.0)
    val uC = if (tcStar.nonEmpty) safeQuery(util, tcStar.toSet).getOrElse(0.0) else 0.0
    var best = if (uC > uT) tcStar else tStar
    var bestU = math.max(uT, uC)
    if (cfg.minimality && best.nonEmpty) {
      val (minSet, minU) = Minimality.minimise(best, bestU, math.min(cfg.theta, bestU), util)
      best = minSet; bestU = minU
    }
    SearchResult("METAM", best, bestU, util.queries, util.curve)
  }

  private def safeQuery(util: CountingUtility, sel: Set[Candidate]): Option[Double] =
    try Some(util.query(sel)) catch { case _: BudgetExhausted => None }
}

/** IDENTIFY-MINIMAL (§IV-A): greedily drop augmentations whose removal
  * keeps utility at or above the (achieved) threshold — yielding a minimal
  * set per Definition 6.
  */
object Minimality {

  def minimise(
      solution: Vector[Candidate],
      solutionUtility: Double,
      threshold: Double,
      util: CountingUtility,
  ): (Vector[Candidate], Double) = {
    var current = solution
    var currentU = solutionUtility
    var changed = true
    try {
      while (changed) {
        changed = false
        // Try dropping each augmentation, most recently added first.
        val it = current.reverse.iterator
        while (it.hasNext && !changed) {
          val c = it.next()
          val without = current.filterNot(_.id == c.id)
          val u = util.query(without.toSet)
          if (u >= threshold - 1e-12) {
            current = without
            currentU = u
            changed = true
          }
        }
      }
    } catch { case _: BudgetExhausted => () }
    (current, currentU)
  }
}
