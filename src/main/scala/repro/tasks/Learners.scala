package repro.tasks

import scala.annotation.tailrec
import scala.util.Random

import repro.util.{LinAlg, Stats}

/** Deterministic in-memory learners backing the predictive tasks.
  *
  * The paper trains scikit-learn random forests / AutoML pipelines; the
  * search only observes the resulting utility scalar, so any deterministic
  * learner with the same qualitative behaviour (utility rises when a
  * predictive column is added, is flat for irrelevant ones) preserves the
  * experiment. Missing values (failed joins) are mean-imputed.
  */
object Learners {

  /** Column-major design from optional feature columns: `x(f)(i)` is
    * feature `f` of row `i`, with missing entries (failed joins) imputed
    * by the column mean.
    */
  def designMatrix(features: Vector[Array[Option[Double]]]): Array[Array[Double]] =
    features.iterator.map { col =>
      var sum = -0.0
      var present = 0
      var i = 0
      while (i < col.length) {
        col(i) match {
          case Some(v) => sum += v; present += 1
          case None =>
        }
        i += 1
      }
      val mean = if (present == 0) 0.0 else sum / present
      val out = new Array[Double](col.length)
      i = 0
      while (i < col.length) {
        out(i) = col(i) match {
          case Some(v) => v
          case None => mean
        }
        i += 1
      }
      out
    }.toArray

  /** Deterministic train/validation split by row-index hash. */
  def split(n: Int, validFrac: Double, seed: Long): (Array[Int], Array[Int]) = {
    val rnd = new Random(seed)
    val shuffled = rnd.shuffle((0 until n).toVector)
    val nValid = math.max(1, (n * validFrac).toInt)
    (shuffled.drop(nValid).toArray.sorted, shuffled.take(nValid).toArray.sorted)
  }

  /** The entries of `xs` at `rows`, in order. */
  def gather(xs: Array[Double], rows: Array[Int]): Array[Double] = {
    val out = new Array[Double](rows.length)
    var k = 0
    while (k < rows.length) { out(k) = xs(rows(k)); k += 1 }
    out
  }

  /** The rows `rows` of the column-major design `x`. */
  def selectRows(x: Array[Array[Double]], rows: Array[Int]): Array[Array[Double]] =
    x.map(gather(_, rows))

  // ---------------------------------------------------------------- forest

  /** One node of a depth-bounded CART tree. */
  sealed trait Node
  final case class Leaf(value: Double) extends Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  /** A bagged ensemble of depth-bounded variance-reduction trees — the
    * random-forest-lite used by classification ([0,1] targets, majority
    * leaf) and regression (mean leaf) tasks.
    */
  final case class Forest(trees: Vector[Node]) {

    /** Prediction for row `i` of the column-major design `x`. */
    def predict(x: Array[Array[Double]], i: Int): Double = {
      var s = 0.0
      var t = 0
      while (t < trees.length) { s += eval(trees(t), x, i); t += 1 }
      s / trees.length
    }

    /** Predictions for `rows` of `x`, in order. */
    def predict(x: Array[Array[Double]], rows: Array[Int]): Array[Double] = {
      val out = new Array[Double](rows.length)
      var k = 0
      while (k < rows.length) { out(k) = predict(x, rows(k)); k += 1 }
      out
    }

    @tailrec private def eval(node: Node, x: Array[Array[Double]], i: Int): Double = node match {
      case Leaf(v) => v
      case Split(f, thr, l, r) => eval(if (x(f)(i) <= thr) l else r, x, i)
    }
  }

  final case class ForestConfig(
      nTrees: Int = 12,
      maxDepth: Int = 3,
      minLeaf: Int = 5,
      featureFrac: Double = 0.7,
      seed: Long = 11,
  )

  /** Train a forest on the column-major design `x` (every row is a
    * training row) against targets `y`.
    *
    * The kernel works on primitive arrays only. Every sum starts at -0.0,
    * the exact identity of floating-point addition, so it equals a
    * left-to-right reduction from the first element; with sums taken in row
    * order the trees are bit-for-bit those of the straightforward
    * collection-based formulation.
    */
  def trainForest(x: Array[Array[Double]], y: Array[Double], cfg: ForestConfig = ForestConfig()): Forest = {
    val n = y.length
    require(n > 0 && x.forall(_.length == n), "empty or mismatched training data")
    val nFeat = x.length
    val buf = new NodeBuffers(n)
    val trees = (0 until cfg.nTrees).map { t =>
      val rnd = new Random(cfg.seed * 1013904223L + t)
      val rows = new Array[Int](n)
      var k = 0
      while (k < n) { rows(k) = rnd.nextInt(n); k += 1 }
      val feats = rnd
        .shuffle((0 until nFeat).toVector)
        .take(math.max(1, math.ceil(nFeat * cfg.featureFrac).toInt))
        .toArray
      grow(x, y, rows, feats, cfg, depth = 0, buf)
    }.toVector
    Forest(trees)
  }

  /** Scratch space for one node's split search, in the node's row order:
    * its targets, one feature's values, and those values sorted. A node
    * is done with them before its children are grown, so one set serves a
    * whole forest.
    */
  private final class NodeBuffers(n: Int) {
    val ys = new Array[Double](n)
    val xs = new Array[Double](n)
    val sorted = new Array[Double](n)
  }

  private def grow(
      x: Array[Array[Double]], y: Array[Double],
      rows: Array[Int], feats: Array[Int],
      cfg: ForestConfig, depth: Int, buf: NodeBuffers,
  ): Node = {
    val m = rows.length
    val ys = buf.ys
    var sum = -0.0
    var k = 0
    while (k < m) { ys(k) = y(rows(k)); sum += ys(k); k += 1 }
    val meanY = sum / m // m > 0: a split never leaves a child empty
    var parentSse = -0.0
    k = 0
    while (k < m) { val d = ys(k) - meanY; parentSse += d * d; k += 1 }
    val std = math.sqrt(parentSse / m)
    if (depth >= cfg.maxDepth || m < 2 * cfg.minLeaf || std < 1e-9)
      return Leaf(meanY)

    // Best split over the quartile thresholds of each candidate feature;
    // the first of equal gains wins.
    val xs = buf.xs
    val sorted = buf.sorted
    var bestF = -1
    var bestThr = 0.0
    var bestGain = 0.0
    var fi = 0
    while (fi < feats.length) {
      val col = x(feats(fi))
      k = 0
      while (k < m) { xs(k) = col(rows(k)); k += 1 }
      System.arraycopy(xs, 0, sorted, 0, m)
      java.util.Arrays.sort(sorted, 0, m) // Double.compare order, as Ordering.Double sorts
      val t0 = sorted(math.min(m - 1, (0.25 * m).toInt))
      val t1 = sorted(math.min(m - 1, (0.5 * m).toInt))
      val t2 = sorted(math.min(m - 1, (0.75 * m).toInt))
      // Duplicates by `==` (so -0.0 equals 0.0 and NaN equals nothing), as
      // `distinct` compares boxed doubles.
      var q = 0
      while (q < 3) {
        val thr = if (q == 0) t0 else if (q == 1) t1 else t2
        val fresh = q == 0 || (q == 1 && thr != t0) || (q == 2 && thr != t0 && thr != t1)
        if (fresh) {
          val gain = parentSse - childSse(xs, ys, m, thr, cfg.minLeaf)
          if ((bestF < 0 || bestGain < gain) && gain > 1e-12) {
            bestF = feats(fi); bestThr = thr; bestGain = gain
          }
        }
        q += 1
      }
      fi += 1
    }
    if (bestF < 0) return Leaf(meanY)

    val col = x(bestF)
    var nl = 0
    k = 0
    while (k < m) { if (col(rows(k)) <= bestThr) nl += 1; k += 1 }
    val l = new Array[Int](nl)
    val r = new Array[Int](m - nl)
    var a = 0
    var b = 0
    k = 0
    while (k < m) {
      val i = rows(k)
      if (col(i) <= bestThr) { l(a) = i; a += 1 } else { r(b) = i; b += 1 }
      k += 1
    }
    Split(bestF, bestThr, grow(x, y, l, feats, cfg, depth + 1, buf), grow(x, y, r, feats, cfg, depth + 1, buf))
  }

  /** Summed squared error of the two children of splitting the first `m`
    * rows at `xs <= thr`, each around its own mean; +∞ when a child has
    * fewer than `minLeaf` rows.
    */
  private def childSse(xs: Array[Double], ys: Array[Double], m: Int, thr: Double, minLeaf: Int): Double = {
    var nl = 0
    var sl = -0.0
    var sr = -0.0
    var k = 0
    while (k < m) {
      if (xs(k) <= thr) { nl += 1; sl += ys(k) } else sr += ys(k)
      k += 1
    }
    val nr = m - nl
    if (nl < minLeaf || nr < minLeaf) return Double.PositiveInfinity
    val ml = sl / nl
    val mr = sr / nr
    var ssl = -0.0
    var ssr = -0.0
    k = 0
    while (k < m) {
      if (xs(k) <= thr) { val d = ys(k) - ml; ssl += d * d } else { val d = ys(k) - mr; ssr += d * d }
      k += 1
    }
    ssl + ssr
  }

  // ----------------------------------------------------------------- ridge

  /** Ridge regression with intercept (features standardised internally). */
  final case class RidgeModel(weights: Array[Double], intercept: Double, means: Array[Double], stds: Array[Double]) {
    def predictRow(x: Array[Double]): Double = {
      var s = intercept
      var j = 0
      while (j < weights.length) {
        val std = if (stds(j) < 1e-12) 1.0 else stds(j)
        s += weights(j) * ((x(j) - means(j)) / std)
        j += 1
      }
      s
    }
  }

  def trainRidge(x: Array[Array[Double]], y: Array[Double], lambda: Double = 1.0): RidgeModel = {
    require(x.nonEmpty, "empty training data")
    val p = x.head.length
    val means = Array.tabulate(p)(j => Stats.mean(x.map(_(j))))
    val stds = Array.tabulate(p)(j => Stats.std(x.map(_(j))))
    val xs = x.map(row => Array.tabulate(p)(j => (row(j) - means(j)) / (if (stds(j) < 1e-12) 1.0 else stds(j))))
    val my = Stats.mean(y)
    val w = if (p == 0) Array.empty[Double] else LinAlg.ridge(xs, y.map(_ - my), lambda)
    RidgeModel(w, my, means, stds)
  }
}
