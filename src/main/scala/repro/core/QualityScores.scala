package repro.core

import scala.collection.mutable

import repro.profile.Profiles
import repro.util.{LinAlg, Stats}

/** Quality-score estimation (§IV-B): ranks candidates by the expectation
  * of improving task utility.
  *
  * The score is the sum of
  *  - a **profile-based score**: weighted average of profile values, where
  *    profile importance weights start uniform and are re-estimated from
  *    observed (profile-vector → utility-gain) pairs with the closed-form
  *    ridge fit of Lemma 4, and
  *  - a **utility-based score**: the observed gain of the candidate, or —
  *    if only a cluster-mate P' was queried — `(1 − d(P, P')) · gain(P')`
  *    (propagation uses property P2 and is disabled for clusters flagged
  *    inhomogeneous).
  */
final class QualityScores(
    profiles: Profiles,
    cands: Vector[Candidate],
    clustering: ClusterPartition.Clustering,
    ridgeLambda: Double = 0.5,
    homogeneityTolerance: Double = 0.15,
) {
  private val l = profiles.dim
  private val index: Map[Int, Int] = cands.map(_.id).zipWithIndex.toMap
  // Cluster membership is immutable — cache it; members() is O(n) per call.
  private val membersOf: Map[Int, Vector[Candidate]] =
    (0 until clustering.nClusters).map(cl => cl -> clustering.members(cl).map(cands(_))).toMap

  private var weights: Array[Double] = Array.fill(l)(1.0 / l)
  private var weightSum: Double = weights.map(math.abs).sum
  private val observedGain = mutable.HashMap.empty[Int, Double] // candidate id → gain
  private val inhomogeneous = mutable.Set.empty[Int]            // cluster ids

  // Both score parts of every candidate, by index in `cands`: profile
  // scores change only when the weights are refit, utility scores only
  // when their own cluster gets an observation.
  private val profileScores: Array[Double] = cands.map(profileScore).toArray
  private val utilityScores: Array[Double] = new Array[Double](cands.length) // nothing observed yet

  def weightsSnapshot: Array[Double] = weights.clone()
  def isInhomogeneous(cluster: Int): Boolean = inhomogeneous.contains(cluster)
  def observations: Int = observedGain.size

  /** Record the observed utility gain of a queried candidate, refit the
    * profile-importance weights, and flag the candidate's cluster as
    * inhomogeneous when members disagree by more than the tolerance
    * (the paper's homogeneity test — propagation then stops, §IV-B
    * "What to do when profiles are not useful?").
    */
  def record(c: Candidate, gain: Double): Unit = {
    observedGain(c.id) = math.max(0.0, gain)
    refitWeights()
    val cl = clustering.clusterOf(index(c.id))
    val memberGains = membersOf(cl).flatMap(m => observedGain.get(m.id))
    if (memberGains.size >= 2 && memberGains.max - memberGains.min > homogeneityTolerance)
      inhomogeneous += cl
    membersOf(cl).foreach(m => utilityScores(index(m.id)) = utilityScore(m))
  }

  /** Weighted-average profile score (the prior from dataset properties).
    * Weights are the *signed* ridge coefficients normalised by Σ|w|
    * (Lemma 4): a profile that anti-predicts gain (e.g. high correlation
    * concentrated on useless candidates) actively demotes its carriers.
    */
  def profileScore(c: Candidate): Double = {
    val p = profiles.of(c)
    if (weightSum < 1e-12) Stats.mean(p)
    else LinAlg.dot(weights, p) / weightSum
  }

  /** Propagated utility score (0 when nothing relevant was observed). */
  def utilityScore(c: Candidate): Double = observedGain.get(c.id).getOrElse {
    val cl = clustering.clusterOf(index(c.id))
    if (inhomogeneous.contains(cl)) 0.0
    else {
      val mates = membersOf(cl).filter(m => m.id != c.id && observedGain.contains(m.id))
      if (mates.isEmpty) 0.0
      else mates.map { m =>
        val d = ClusterPartition.distance(profiles.of(c), profiles.of(m))
        math.max(0.0, (1.0 - d) * observedGain(m.id))
      }.max
    }
  }

  /** Total quality score = profile-based + utility-based. */
  def score(c: Candidate): Double = {
    val i = index(c.id)
    profileScores(i) + utilityScores(i)
  }

  /** Ridge refit of profile importances once enough observations exist
    * (the closed-form estimator of Lemma 4). Coefficients keep their sign;
    * normalisation by Σ|w| only fixes the scale.
    */
  private def refitWeights(): Unit = {
    if (observedGain.size < l + 2) return
    val rows = observedGain.toArray.sortBy(_._1)
    val x = rows.map { case (id, _) => profiles.byId(id) }
    val y = rows.map(_._2)
    val coef = LinAlg.ridge(x, y, ridgeLambda)
    val s = coef.map(math.abs).sum
    weights = if (s < 1e-12) Array.fill(l)(1.0 / l) else coef.map(_ / s)
    weightSum = weights.map(math.abs).sum
    cands.indices.foreach(i => profileScores(i) = profileScore(cands(i)))
  }
}
