package repro.tasks

import scala.util.Random

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSupport
import repro.tasks.Learners.{ForestConfig, Leaf, Node, Split}
import repro.util.Stats

class LearnersSpec extends AnyFunSuite with PropSupport {

  private val rnd = new scala.util.Random(42)

  // The kernel takes a column-major design; these tests build rows.
  private def fit(rows: Array[Array[Double]], y: Array[Double], cfg: ForestConfig = ForestConfig()) =
    Learners.trainForest(rows.transpose, y, cfg)

  private def predictAll(f: Learners.Forest, rows: Array[Array[Double]]): Array[Double] =
    f.predict(rows.transpose, rows.indices.toArray)

  test("designMatrix imputes missing values with the column mean") {
    val m = Learners.designMatrix(Vector(Array(Some(1.0), None, Some(3.0))))
    assert(m(0).toSeq == Seq(1.0, 2.0, 3.0))
  }

  test("designMatrix of an all-missing column is zeros") {
    val m = Learners.designMatrix(Vector(Array[Option[Double]](None, None)))
    assert(m(0).toSeq == Seq(0.0, 0.0))
  }

  test("split is deterministic and disjoint") {
    val (tr1, va1) = Learners.split(100, 0.3, 7)
    val (tr2, va2) = Learners.split(100, 0.3, 7)
    assert(tr1.toSeq == tr2.toSeq && va1.toSeq == va2.toSeq)
    assert((tr1.toSet & va1.toSet).isEmpty)
    assert(tr1.length + va1.length == 100)
    assert(va1.length == 30)
  }

  test("split differs across seeds") {
    val (_, va1) = Learners.split(100, 0.3, 7)
    val (_, va2) = Learners.split(100, 0.3, 8)
    assert(va1.toSeq != va2.toSeq)
  }

  test("forest fits a separable threshold function") {
    val x = Array.fill(300)(Array(rnd.nextGaussian(), rnd.nextGaussian()))
    val y = x.map(r => if (r(0) > 0) 1.0 else 0.0)
    val f = fit(x, y)
    val pred = predictAll(f, x)
    assert(Stats.accuracy(pred, y) > 0.9)
  }

  test("forest prediction is deterministic for a fixed seed") {
    val x = Array.fill(100)(Array(rnd.nextGaussian()))
    val y = x.map(r => if (r(0) > 0.2) 1.0 else 0.0)
    val f1 = fit(x, y, ForestConfig(seed = 5))
    val f2 = fit(x, y, ForestConfig(seed = 5))
    assert(predictAll(f1, x).toSeq == predictAll(f2, x).toSeq)
  }

  test("forest on pure noise stays near the base rate") {
    val x = Array.fill(200)(Array(rnd.nextGaussian()))
    val y = Array.fill(200)(if (rnd.nextBoolean()) 1.0 else 0.0)
    val f = fit(x, y)
    val mean = Stats.mean(predictAll(f, x))
    assert(mean > 0.2 && mean < 0.8)
  }

  test("forest regression tracks a smooth function") {
    val x = Array.tabulate(200)(i => Array(i / 200.0))
    val y = x.map(r => r(0))
    val f = fit(x, y, ForestConfig(maxDepth = 4))
    val mae = Stats.mae(predictAll(f, x), y)
    assert(mae < 0.12, s"mae $mae")
  }

  test("forest requires non-empty training data") {
    intercept[IllegalArgumentException](Learners.trainForest(Array.empty, Array.empty))
  }

  test("constant labels produce constant predictions") {
    val x = Array.fill(50)(Array(rnd.nextGaussian()))
    val y = Array.fill(50)(1.0)
    val f = fit(x, y)
    assert(predictAll(f, x).forall(_ == 1.0))
  }

  test("ridge recovers a linear trend") {
    val x = Array.tabulate(100)(i => Array(i.toDouble))
    val y = x.map(r => 3.0 * r(0) + 1.0)
    val m = Learners.trainRidge(x, y, lambda = 1e-6)
    val pred = x.map(m.predictRow)
    assert(Stats.mae(pred, y) / 300.0 < 0.01)
  }

  test("ridge with constant feature predicts the mean") {
    val x = Array.fill(20)(Array(5.0))
    val y = Array.tabulate(20)(_.toDouble)
    val m = Learners.trainRidge(x, y)
    assert(math.abs(m.predictRow(Array(5.0)) - 9.5) < 1e-6)
  }

  // ------------------------------------------------- oracle: the boxed kernel

  private val bits: Double => Long = java.lang.Double.doubleToRawLongBits

  /** A tree with every double as its raw bits (case-class `==` equates -0.0 and 0.0). */
  private def render(node: Node): String = node match {
    case Leaf(v) => s"L${bits(v)}"
    case Split(f, thr, l, r) => s"S($f,${bits(thr)},${render(l)},${render(r)})"
  }

  /** Both kernels on one design: equal trees, raw-bit-identical thresholds,
    * leaves, imputed design and predictions.
    */
  private def agree(features: Vector[Array[Option[Double]]], y: Array[Double], cfg: ForestConfig): Boolean = {
    val rows = BoxedForest.designMatrix(features)
    val cols = Learners.designMatrix(features)
    val expected = BoxedForest.trainForest(rows, y, cfg)
    val got = Learners.trainForest(cols, y, cfg)
    got == expected &&
      got.trees.map(render) == expected.trees.map(render) &&
      rows.indices.forall { i =>
        rows(i).indices.forall(f => bits(rows(i)(f)) == bits(cols(f)(i))) &&
          bits(got.predict(cols, i)) == bits(BoxedForest.predictRow(expected, rows(i)))
      }
  }

  private val tied = Array(-1.0, -0.0, 0.0, 0.0, 1.0, 2.0)

  /** A random forest problem: continuous, tied (signed zeros included),
    * constant and partly missing columns; binary, continuous or constant
    * targets; node sizes around 2·minLeaf; feature fractions down to one
    * feature.
    */
  private def randomCase(seed: Long): (Vector[Array[Option[Double]]], Array[Double], ForestConfig) = {
    val r = new Random(seed)
    val minLeaf = 1 + r.nextInt(6)
    val n = r.nextInt(4) match {
      case 0 => 2 * minLeaf - 1
      case 1 => 2 * minLeaf
      case 2 => 2 * minLeaf + 1
      case _ => 10 + r.nextInt(150)
    }
    val features = Vector.fill(1 + r.nextInt(6)) {
      val kind = r.nextInt(4)
      val constant = r.nextGaussian()
      val missing = if (r.nextBoolean()) 0.5 * r.nextDouble() else 0.0
      Array.fill[Option[Double]](n) {
        if (r.nextDouble() < missing) None
        else Some(kind match {
          case 0 => r.nextGaussian()
          case 1 => tied(r.nextInt(tied.length))
          case 2 => constant
          case _ => math.rint(2 * r.nextGaussian()) / 2
        })
      }
    }
    val y = r.nextInt(3) match {
      case 0 => Array.fill(n)(if (r.nextBoolean()) 1.0 else if (r.nextBoolean()) 0.0 else -0.0)
      case 1 => Array.fill(n)(r.nextDouble())
      case _ => Array.fill(n)(0.5)
    }
    val cfg = ForestConfig(
      nTrees = 1 + r.nextInt(6),
      maxDepth = 1 + r.nextInt(5),
      minLeaf = minLeaf,
      featureFrac = Seq(0.01, 0.5, 0.7, 1.0)(r.nextInt(4)),
      seed = r.nextLong(),
    )
    (features, y, cfg)
  }

  test("primitive kernel builds the boxed oracle's trees on random designs") {
    checkProp(Prop.forAll(Gen.choose(Long.MinValue, Long.MaxValue)) { seed =>
      val (features, y, cfg) = randomCase(seed)
      agree(features, y, cfg) :| s"case seed $seed"
    }, tries = 400)
  }

  test("primitive kernel matches the oracle at signed zeros, ties and the 2·minLeaf boundary") {
    val signed = Array(-0.0, 0.0, -0.0, 0.0, 1.0, -0.0, 0.0, 1.0, 2.0, 0.0, -0.0, 1.0)
    val y = Array(0.0, 1.0, -0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, -0.0, 0.0, 1.0)
    val feats = Vector(signed.map(Option(_)), signed.map(v => if (v == 1.0) None else Some(v)), Array.fill(12)(Option(3.0)))
    for (minLeaf <- Seq(1, 2, 3, 5, 6, 7); frac <- Seq(0.01, 1.0); n <- Seq(2 * minLeaf - 1, 2 * minLeaf, 12).filter(k => k >= 1 && k <= 12)) {
      val cfg = ForestConfig(nTrees = 8, maxDepth = 4, minLeaf = minLeaf, featureFrac = frac)
      assert(agree(feats.map(_.take(n)), y.take(n), cfg), s"minLeaf=$minLeaf featureFrac=$frac n=$n")
    }
  }
}
