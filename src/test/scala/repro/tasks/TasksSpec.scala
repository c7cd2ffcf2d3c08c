package repro.tasks

import org.scalatest.funsuite.AnyFunSuite

import repro.lake.LocalTable

class TasksSpec extends AnyFunSuite {

  private val rnd = new scala.util.Random(55)
  private val n = 400

  private def numCol(vs: Array[Double]): Array[Option[String]] = vs.map(v => Option(v.toString))

  // A planted-signal classification fixture.
  private val signal = Array.fill(n)(rnd.nextGaussian())
  private val med = signal.sorted.apply(n / 2)
  private val label = signal.map(v => if (v > med) 1.0 else 0.0)
  private val noiseCol = Array.fill(n)(rnd.nextGaussian())

  private def base: LocalTable = LocalTable(Vector(
    "key" -> Array.tabulate(n)(i => Option(s"K$i")),
    "bf" -> numCol(noiseCol),
    "target" -> numCol(label),
  ))

  test("featureColumns keeps numeric columns and drops keys/strings") {
    val t = base.add("txt", Array.fill[Option[String]](n)(Some("hello")))
    assert(Tasks.featureColumns(t, Set("target")) == Vector("bf"))
  }

  test("featureColumns tolerates missing values in a numeric column") {
    val t = base.add("sparse", Array.tabulate[Option[String]](n)(i => if (i % 2 == 0) Some("1.5") else None))
    assert(Tasks.featureColumns(t, Set("target")).contains("sparse"))
  }

  test("featureColumns drops all-missing columns") {
    val t = base.add("empty", Array.fill[Option[String]](n)(None))
    assert(!Tasks.featureColumns(t, Set("target")).contains("empty"))
  }

  test("classification: predictive augmentation raises utility") {
    val task = Tasks.ClassificationTask("c", "target", Set("key"))
    val u0 = task.utility(base)
    val u1 = task.utility(base.add("aug", numCol(signal.map(_ + 0.1 * rnd.nextGaussian()))))
    assert(u1 > u0 + 0.15, s"u0=$u0 u1=$u1")
    assert(u1 > 0.8)
  }

  test("classification: irrelevant augmentation changes utility little") {
    val task = Tasks.ClassificationTask("c", "target", Set("key"))
    val u0 = task.utility(base)
    val u1 = task.utility(base.add("aug", numCol(Array.fill(n)(rnd.nextGaussian()))))
    assert(math.abs(u1 - u0) < 0.15, s"u0=$u0 u1=$u1")
  }

  test("classification utility is deterministic") {
    val task = Tasks.ClassificationTask("c", "target", Set("key"))
    assert(task.utility(base) == task.utility(base))
  }

  test("classification with no usable features returns 0") {
    val t = LocalTable(Vector("key" -> Array(Some("a"), Some("b")), "target" -> Array(Some("1"), Some("0"))))
    assert(Tasks.ClassificationTask("c", "target", Set("key")).utility(t) == 0.0)
  }

  test("regression: predictive augmentation reduces MAE (raises utility)") {
    val outcome = signal.zipWithIndex.sortBy(_._1).map(_._2).zipWithIndex.toMap
    val yReg = Array.tabulate(n)(i => outcome(i).toDouble / (n - 1))
    val t = LocalTable(Vector(
      "key" -> Array.tabulate(n)(i => Option(s"K$i")),
      "bf" -> numCol(noiseCol),
      "outcome" -> numCol(yReg),
    ))
    val task = Tasks.RegressionTask("r", "outcome", Set("key"))
    val u0 = task.utility(t)
    val u1 = task.utility(t.add("aug", numCol(signal)))
    assert(u1 > u0 + 0.05, s"u0=$u0 u1=$u1")
  }

  test("causal: utility is the fraction of recovered ground-truth signals") {
    val s0 = Array.fill(n)(rnd.nextGaussian())
    val s1 = Array.fill(n)(rnd.nextGaussian())
    val outcome = Array.tabulate(n)(i => s0(i) + s1(i) + 0.3 * rnd.nextGaussian())
    val sigOf: String => Option[Int] = c => if (c.startsWith("gt0")) Some(0) else if (c.startsWith("gt1")) Some(1) else None
    val task = Tasks.CausalTask("w", "outcome", Set("key"), sigOf, k = 2)
    val t = LocalTable(Vector("key" -> Array.tabulate(n)(i => Option(s"K$i")), "outcome" -> numCol(outcome)))
    assert(task.utility(t) == 0.0)
    assert(task.utility(t.add("gt0", numCol(s0))) == 0.5)
    assert(task.utility(t.add("gt0", numCol(s0)).add("gt1", numCol(s1))) == 1.0)
  }

  test("causal: an insignificant ground-truth column earns no credit") {
    val s0 = Array.fill(n)(rnd.nextGaussian())
    val outcome = Array.fill(n)(rnd.nextGaussian()) // independent of s0
    val task = Tasks.CausalTask("w", "outcome", Set("key"), c => if (c == "gt0") Some(0) else None, k = 1)
    val t = LocalTable(Vector("key" -> Array.tabulate(n)(i => Option(s"K$i")), "outcome" -> numCol(outcome)))
    assert(task.utility(t.add("gt0", numCol(s0))) == 0.0)
  }

  test("causal: a mostly-null (erroneous join) column earns no credit") {
    val s0 = Array.fill(n)(rnd.nextGaussian())
    val outcome = Array.tabulate(n)(i => s0(i))
    val sparse = Array.tabulate[Option[String]](n)(i => if (i < 10) Some(s0(i).toString) else None)
    val task = Tasks.CausalTask("w", "outcome", Set("key"), c => if (c == "gt0") Some(0) else None, k = 1)
    val t = LocalTable(Vector("key" -> Array.tabulate(n)(i => Option(s"K$i")), "outcome" -> numCol(outcome)))
    assert(task.utility(t.add("gt0", sparse)) == 0.0)
  }

  test("causal: spuriously significant non-GT columns earn nothing") {
    val s0 = Array.fill(n)(rnd.nextGaussian())
    val outcome = Array.tabulate(n)(i => s0(i))
    val task = Tasks.CausalTask("w", "outcome", Set("key"), _ => None, k = 1)
    val t = LocalTable(Vector("key" -> Array.tabulate(n)(i => Option(s"K$i")), "outcome" -> numCol(outcome)))
    assert(task.utility(t.add("copy", numCol(s0))) == 0.0)
  }

  test("causal utility is monotone in added GT columns") {
    val s0 = Array.fill(n)(rnd.nextGaussian())
    val outcome = Array.tabulate(n)(i => s0(i) + 0.2 * rnd.nextGaussian())
    val task = Tasks.CausalTask("w", "outcome", Set("key"), c => if (c == "gt0") Some(0) else None, k = 1)
    val t0 = LocalTable(Vector("key" -> Array.tabulate(n)(i => Option(s"K$i")), "outcome" -> numCol(outcome)))
    val withNoise = t0.add("junk", numCol(Array.fill(n)(rnd.nextGaussian())))
    val withAll = withNoise.add("gt0", numCol(s0))
    assert(task.utility(withAll) >= task.utility(withNoise))
  }

  test("entity linking: unique mentions link without context") {
    val kb = Map("solo" -> Vector(("E1", "NY")), "ambi" -> Vector(("E2", "NY"), ("E3", "CA")))
    val t = LocalTable(Vector("city" -> Array(Some("solo"), Some("ambi"))))
    val task = Tasks.EntityLinkingTask("el", "city", kb, Array("E1", "E2"), Set.empty)
    assert(task.utility(t) == 0.5)
  }

  test("entity linking: a context column disambiguates") {
    val kb = Map("ambi" -> Vector(("E2", "NY"), ("E3", "CA")))
    val t = LocalTable(Vector("city" -> Array(Some("ambi"), Some("ambi"))))
    val task = Tasks.EntityLinkingTask("el", "city", kb, Array("E2", "E3"), Set.empty)
    assert(task.utility(t) == 0.0)
    val t2 = t.add("state", Array(Some("NY"), Some("CA")))
    assert(task.utility(t2) == 1.0)
  }

  test("entity linking: wrong context links wrongly") {
    val kb = Map("ambi" -> Vector(("E2", "NY"), ("E3", "CA")))
    val t = LocalTable(Vector("city" -> Array(Some("ambi")))).add("state", Array(Some("CA")))
    val task = Tasks.EntityLinkingTask("el", "city", kb, Array("E2"), Set.empty)
    assert(task.utility(t) == 0.0)
  }

  test("entity linking: unknown mention stays unlinked") {
    val kb = Map("known" -> Vector(("E1", "NY")))
    val t = LocalTable(Vector("city" -> Array(Some("mystery"))))
    val task = Tasks.EntityLinkingTask("el", "city", kb, Array("E9"), Set.empty)
    assert(task.utility(t) == 0.0)
  }

  test("fair classification ignores features correlated with the sensitive attribute") {
    val sens = Array.fill(n)(if (rnd.nextBoolean()) 1.0 else 0.0)
    val fair = Array.fill(n)(rnd.nextGaussian())
    val z = Array.tabulate(n)(i => fair(i) + 1.5 * sens(i))
    val zc = z.sorted.apply(n / 2)
    val y = z.map(v => if (v > zc) 1.0 else 0.0)
    val t = LocalTable(Vector(
      "key" -> Array.tabulate(n)(i => Option(s"K$i")),
      "sensitive" -> numCol(sens),
      "bf" -> numCol(Array.fill(n)(rnd.nextGaussian())),
      "target" -> numCol(y),
    ))
    val task = Tasks.FairClassificationTask("f", "target", "sensitive", Set("key"))
    val u0 = task.utility(t)
    // The unfair column is predictive but must be discarded → no gain.
    val uUnfair = task.utility(t.add("unfair", numCol(sens.map(_ + 0.1 * rnd.nextGaussian()))))
    assert(uUnfair <= u0 + 0.08, s"u0=$u0 uUnfair=$uUnfair")
    // The fair column is kept → clear gain.
    val uFair = task.utility(t.add("fairf", numCol(fair.map(_ + 0.2 * rnd.nextGaussian()))))
    assert(uFair > u0 + 0.1, s"u0=$u0 uFair=$uFair")
  }

  test("clustering: an aligned augmentation tightens clusters") {
    val cat = Array.fill(n)(rnd.nextInt(3))
    val noisy = cat.map(c => c + 1.5 * rnd.nextGaussian())
    val t = LocalTable(Vector(
      "key" -> Array.tabulate(n)(i => Option(s"K$i")),
      "satiety" -> numCol(noisy),
    ))
    val task = Tasks.ClusteringTask("cl", 3, Set("key"))
    val u0 = task.utility(t)
    val u1 = task.utility(t.add("oni", numCol(cat.map(c => c * 2.0 + 0.05 * rnd.nextGaussian()))))
    assert(u1 > u0 + 0.2, s"u0=$u0 u1=$u1")
    assert(u1 > 0.85)
  }

  test("clustering utility is monotone under added columns (best-column rule)") {
    val t = LocalTable(Vector("x" -> numCol(Array.fill(50)(rnd.nextGaussian()))))
    val task = Tasks.ClusteringTask("cl", 2, Set.empty)
    val u0 = task.utility(t)
    val u1 = task.utility(t.add("y", numCol(Array.fill(50)(rnd.nextGaussian()))))
    assert(u1 >= u0 - 1e-12)
  }
}
