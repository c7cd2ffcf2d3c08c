package repro.tasks

import scala.util.Random

import repro.tasks.Learners.{Forest, ForestConfig, Leaf, Node, Split}
import repro.util.Stats

/** Test oracle: the collection-based forest kernel that the primitive
  * column-major kernel in [[Learners]] replaced, kept verbatim (row-major
  * design, boxed `map`/`partition`/`Option` split search). `LearnersSpec`
  * asserts that both build equal trees.
  */
object BoxedForest {

  /** Dense row-major design matrix with mean imputation. */
  def designMatrix(features: Vector[Array[Option[Double]]]): Array[Array[Double]] = {
    val n = if (features.isEmpty) 0 else features.head.length
    val means = features.map { col =>
      val present = col.flatten
      if (present.isEmpty) 0.0 else present.sum / present.length
    }
    Array.tabulate(n) { i =>
      features.indices.map(j => features(j)(i).getOrElse(means(j))).toArray
    }
  }

  def trainForest(x: Array[Array[Double]], y: Array[Double], cfg: ForestConfig = ForestConfig()): Forest = {
    require(x.length == y.length && x.nonEmpty, "empty or mismatched training data")
    val nFeat = x.head.length
    val trees = (0 until cfg.nTrees).map { t =>
      val rnd = new Random(cfg.seed * 1013904223L + t)
      val rows = Array.fill(x.length)(rnd.nextInt(x.length))
      val feats = rnd
        .shuffle((0 until nFeat).toVector)
        .take(math.max(1, math.ceil(nFeat * cfg.featureFrac).toInt))
      grow(x, y, rows, feats, cfg, depth = 0, rnd)
    }.toVector
    Forest(trees)
  }

  private def grow(
      x: Array[Array[Double]], y: Array[Double],
      rows: Array[Int], feats: Vector[Int],
      cfg: ForestConfig, depth: Int, rnd: Random,
  ): Node = {
    val ys = rows.map(y)
    val meanY = Stats.mean(ys)
    if (depth >= cfg.maxDepth || rows.length < 2 * cfg.minLeaf || Stats.std(ys) < 1e-9)
      return Leaf(meanY)

    // Best split over quartile thresholds of each candidate feature.
    var best: Option[(Int, Double, Double)] = None // (feature, threshold, score)
    val parentSse = ys.map(v => (v - meanY) * (v - meanY)).sum
    feats.foreach { f =>
      val vals = rows.map(i => x(i)(f)).sorted
      val thresholds = Vector(0.25, 0.5, 0.75).map(q => vals(math.min(vals.length - 1, (q * vals.length).toInt))).distinct
      thresholds.foreach { thr =>
        val (l, r) = rows.partition(i => x(i)(f) <= thr)
        if (l.length >= cfg.minLeaf && r.length >= cfg.minLeaf) {
          val ml = Stats.mean(l.map(y)); val mr = Stats.mean(r.map(y))
          val sse = l.map(i => (y(i) - ml) * (y(i) - ml)).sum + r.map(i => (y(i) - mr) * (y(i) - mr)).sum
          val gain = parentSse - sse
          if (best.forall(_._3 < gain) && gain > 1e-12) best = Some((f, thr, gain))
        }
      }
    }
    best match {
      case None => Leaf(meanY)
      case Some((f, thr, _)) =>
        val (l, r) = rows.partition(i => x(i)(f) <= thr)
        Split(f, thr, grow(x, y, l, feats, cfg, depth + 1, rnd), grow(x, y, r, feats, cfg, depth + 1, rnd))
    }
  }

  /** The replaced row-major prediction. */
  def predictRow(forest: Forest, x: Array[Double]): Double = {
    var s = 0.0
    forest.trees.foreach { t => s += eval(t, x) }
    s / forest.trees.length
  }

  private def eval(node: Node, x: Array[Double]): Double = node match {
    case Leaf(v) => v
    case Split(f, thr, l, r) => if (x(f) <= thr) eval(l, x) else eval(r, x)
  }
}
