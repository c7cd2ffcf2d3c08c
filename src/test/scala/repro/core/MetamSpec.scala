package repro.core

import repro.SparkSpec

class MetamSpec extends SparkSpec {

  /** Utility: planted tables {0,1} each contribute 0.4 over a 0.1 base. */
  private def plantedEnv(n: Int) = TestEnv.build(
    spark, n,
    s => 0.1 + 0.4 * s.count(Set(0, 1).contains),
    // Planted candidates have high corr+overlap; the rest look mediocre.
    i => if (i <= 1) Array(0.9, 0.8, 0.6, 0.5, 0.9) else Array(0.2, 0.1, 0.4, 0.5, 0.9),
  )

  test("finds the planted augmentations and reaches theta") {
    val env = plantedEnv(12)
    val res = Metam.run(env.cands, env.profiles, env.util(200), MetamConfig(theta = 0.9, seed = 3))
    assert(res.utility >= 0.9 - 1e-9)
    assert(res.solution.map(_.id).toSet == Set(0, 1))
  }

  test("solution is minimal (redundant candidates removed)") {
    val env = TestEnv.build(spark, 8, s => if (s.contains(0)) 0.95 else 0.1,
      i => if (i == 0) Array(0.9, 0.9, 0.9, 0.9, 0.9) else Array(0.3, 0.3, 0.3, 0.3, 0.3))
    val res = Metam.run(env.cands, env.profiles, env.util(200), MetamConfig(theta = 0.9, seed = 4))
    assert(res.solution.map(_.id) == Vector(0))
  }

  test("stops once theta is reached (anytime behaviour)") {
    val env = plantedEnv(30)
    val util = env.util(500)
    val res = Metam.run(env.cands, env.profiles, util, MetamConfig(theta = 0.5, seed = 5))
    // theta=0.5 needs a single planted table; METAM must not spend the
    // whole budget.
    assert(res.utility >= 0.5)
    assert(res.queriesUsed < 100)
  }

  test("a probe that reaches theta ends the probe round") {
    // Every candidate is its own cluster and tau allows 20 probes, but the
    // first probe (the top-profiled candidate) already reaches theta. With
    // a budget of 5, probing on after it would spend the budget before the
    // commit and return the base utility.
    val env = TestEnv.build(spark, 20, s => if (s.contains(0)) 0.95 else 0.1,
      i => if (i == 0) Array(0.9, 0.9, 0.9, 0.9, 0.9) else Array(0.3, 0.3, 0.3, 0.3, 0.3))
    val res = Metam.run(env.cands, env.profiles, env.util(5),
      MetamConfig(theta = 0.9, tau = 20, seed = 14, useClustering = false))
    assert(res.utility >= 0.9, s"got ${res.utility} with ${res.queriesUsed} queries")
    assert(res.solution.map(_.id) == Vector(0))
    assert(res.queriesUsed <= 3)
  }

  test("respects the query budget and returns best-so-far") {
    val env = plantedEnv(40)
    val res = Metam.run(env.cands, env.profiles, env.util(10), MetamConfig(theta = 0.95, seed = 6))
    assert(res.queriesUsed <= 10)
    assert(res.utility >= 0.0)
  }

  test("needs far fewer queries than uniform sampling on a profile-informative lake") {
    val n = 60
    val env = TestEnv.build(
      spark, n,
      s => 0.1 + (if (s.contains(55)) 0.8 else 0.0),
      i => if (i == 55) Array(0.9, 0.9, 0.7, 0.5, 0.9) else Array(0.2, 0.2, 0.4, 0.5, 0.9),
    )
    val resM = Metam.run(env.cands, env.profiles, env.util(500), MetamConfig(theta = 0.85, seed = 7))
    assert(resM.utility >= 0.85)
    assert(resM.queriesUsed < 20, s"METAM took ${resM.queriesUsed} queries")
    val resU = repro.baselines.Baselines.uniformSampling(env.cands, env.util(500), 0.85, seed = 1)
    assert(resM.queriesUsed < resU.queriesUsed)
  }

  test("clustering prunes near-duplicate candidates (variant comparison)") {
    // 3 clusters of 10 identical profiles each; only cluster of id<10 helps.
    val n = 30
    val env = TestEnv.build(
      spark, n,
      s => 0.1 + (if (s.exists(_ < 10)) 0.8 else 0.0),
      i => if (i < 10) Array(0.6, 0.6, 0.6, 0.6, 0.6)
      else if (i < 20) Array(0.3, 0.3, 0.3, 0.3, 0.3)
      else Array(0.9, 0.1, 0.1, 0.1, 0.1),
    )
    val withC = Metam.run(env.cands, env.profiles, env.util(300), MetamConfig(theta = 0.85, seed = 8))
    val noC = Metam.run(env.cands, env.profiles, env.util(300),
      MetamConfig(theta = 0.85, seed = 8, useClustering = false))
    assert(withC.utility >= 0.85)
    assert(noC.utility >= 0.85)
    assert(withC.queriesUsed <= noC.queriesUsed)
  }

  test("all ablation variants (Eq, Nc, NcEq) still find the solution") {
    val env = plantedEnv(15)
    val variants = Seq(
      MetamConfig(theta = 0.9, seed = 9, useThompson = false),
      MetamConfig(theta = 0.9, seed = 9, useClustering = false),
      MetamConfig(theta = 0.9, seed = 9, useClustering = false, useThompson = false),
    )
    variants.foreach { cfg =>
      val res = Metam.run(env.cands, env.profiles, env.util(300), cfg)
      assert(res.utility >= 0.9 - 1e-9, s"variant $cfg failed with ${res.utility}")
    }
  }

  test("group querying can discover conjunctive (AND) utilities") {
    // Utility only rises when BOTH 2 and 3 are present — single probes see
    // nothing; the combinatorial mechanism must find the pair.
    val env = TestEnv.build(
      spark, 6,
      s => if (s.contains(2) && s.contains(3)) 0.9 else 0.1,
      i => Array(0.5, 0.5, 0.5, 0.5, 0.5),
    )
    val res = Metam.run(env.cands, env.profiles, env.util(2000),
      MetamConfig(theta = 0.85, seed = 10, groupRoundsPerSize = 4))
    assert(res.utility >= 0.85, s"got ${res.utility} with ${res.queriesUsed} queries")
    assert(res.solution.map(_.id).toSet == Set(2, 3))
  }

  test("reports a monotone utility curve") {
    val env = plantedEnv(20)
    val res = Metam.run(env.cands, env.profiles, env.util(100), MetamConfig(theta = 0.95, seed = 11))
    val curve = res.curve.map(_._2)
    assert(curve.zip(curve.tail).forall { case (a, b) => b >= a })
    assert(res.utilityAt(0) == 0.0)
    assert(res.utilityAt(Int.MaxValue) == curve.last)
  }

  test("exhausts gracefully when no augmentation helps") {
    val env = TestEnv.build(spark, 5, _ => 0.3)
    val res = Metam.run(env.cands, env.profiles, env.util(200), MetamConfig(theta = 0.9, seed = 12))
    assert(math.abs(res.utility - 0.3) < 1e-9)
    assert(res.solution.isEmpty)
  }

  test("deterministic given the same seed") {
    val env = plantedEnv(25)
    val a = Metam.run(env.cands, env.profiles, env.util(150), MetamConfig(theta = 0.9, seed = 13))
    val b = Metam.run(env.cands, env.profiles, env.util(150), MetamConfig(theta = 0.9, seed = 13))
    assert(a.solution.map(_.id) == b.solution.map(_.id))
    assert(a.queriesUsed == b.queriesUsed)
  }

  test("rejects an empty candidate set") {
    val env = plantedEnv(3)
    intercept[IllegalArgumentException] {
      Metam.run(Vector.empty, env.profiles, env.util(10), MetamConfig())
    }
  }
}
