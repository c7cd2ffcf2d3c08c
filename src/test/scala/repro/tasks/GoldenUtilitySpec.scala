package repro.tasks

import repro.SparkSpec
import repro.core.{AugmentEngine, Candidate}
import repro.discovery.JoinDiscovery
import repro.lake.{Scenario, ScenarioGen, ScenarioSpec, TaskKind}

/** Pins every task's exact utility on fixed selections of discovered
  * candidates on the six Table II scenarios, the three generalization
  * scenarios and one regression scenario.
  * The values were recorded from the collection-based forest kernel with
  * per-query string parsing; a speed-up of either must reproduce them
  * bit for bit (`==`).
  */
class GoldenUtilitySpec extends SparkSpec {

  private val regression = ScenarioSpec("regression", TaskKind.Regression, rows = 200, nSignals = 2,
    dupsPerPlanted = 1, nIrrelevant = 30, nIrrelevantDups = 10, nTopicIrrelevant = 5, nErroneous = 20, seed = 77)

  private lazy val scenarios: Vector[Scenario] =
    ScenarioGen.tableII() ++ Vector(
      ScenarioGen.entityLinking(), ScenarioGen.fairClassification(), ScenarioGen.clusteringScenario(),
      ScenarioGen.scenario(regression))

  /** The pinned selections, in a fixed order: ∅, the first eight
    * candidates alone, and groups of 3, 8 and 20 (fewer when there are
    * fewer candidates) that hold up to a third ground-truth candidates and
    * are filled with candidates spread evenly over the list.
    */
  private def selections(s: Scenario, cands: Vector[Candidate]): Vector[Vector[Candidate]] = {
    val truth = cands.filter(c => s.groundTruthTables.contains(c.table))
    def group(k: Int): Vector[Candidate] = {
      val spread = (0 until k).map(i => cands(i * cands.length / k)).toVector
      (truth.take((k + 2) / 3) ++ spread).distinct.take(k)
    }
    Vector(Vector.empty[Candidate]) ++ cands.take(8).map(Vector(_)) ++ Vector(group(3), group(8), group(20))
  }

  /** Raw task utility of each pinned selection of `s`'s discovered candidates. */
  private def utilities(s: Scenario): Vector[Double] = {
    val cands = JoinDiscovery.candidatesFor(spark, s.input, s.lake, 0.03, 1)
    val sels = selections(s, cands)
    val engine = new AugmentEngine(spark, s.input, s.lake)
    engine.prefetch(sels.flatten.distinct)
    sels.map(sel => s.task.utility(engine.localTable(sel.sortBy(_.id))))
  }

  /** Utility per pinned selection, recorded before the speed-up. */
  private val golden: Map[String, Vector[Double]] = Map(
    "schools" -> Vector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2, 0.4, 0.8),
    "taxi" -> Vector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0),
    "crime" -> Vector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.4),
    "housing" -> Vector(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.5, 1.0),
    "pharmacy" -> Vector(
      0.6065573770491803, 0.6178861788617885, 0.5937500000000001, 0.6141732283464567,
      0.6065573770491803, 0.6511627906976744, 0.6000000000000001, 0.6178861788617885,
      0.5546218487394957, 0.628099173553719, 0.9016393442622951, 0.8780487804878049),
    "grocery" -> Vector(
      0.5299145299145299, 0.5084745762711864, 0.5, 0.5470085470085471,
      0.4672897196261683, 0.49122807017543857, 0.4821428571428571, 0.49122807017543857,
      0.4864864864864865, 0.6715328467153284, 0.7175572519083969, 0.8360655737704917),
    "entity_linking" -> Vector(0.47, 0.47, 0.47, 0.47, 0.47, 0.47, 0.47, 0.47, 0.47, 1.0, 1.0, 1.0),
    "fair_credit" -> Vector(
      0.44067796610169496, 0.5952380952380951, 0.6777777777777778, 0.5245901639344263,
      0.5463917525773196, 0.5029239766081871, 0.5524861878453038, 0.48618784530386744,
      0.4320987654320988, 0.5903614457831324, 0.7213114754098361, 0.7472527472527474),
    "satiety_clustering" -> Vector(
      0.7518023191175768, 0.7518023191175768, 0.7518023191175768, 0.7518023191175768,
      0.7518023191175768, 0.7518023191175768, 0.7518023191175768, 0.7518023191175768,
      0.9464130562960663, 0.9464130562960663, 0.9464130562960663, 0.9464130562960663),
    "regression" -> Vector(
      0.750912762269258, 0.750912762269258, 0.7454053525856148, 0.7504889815599791,
      0.750912762269258, 0.750912762269258, 0.7543155580904592, 0.750912762269258,
      0.750912762269258, 0.7904844499598094, 0.8418473218299996, 0.8501820866945362),
  )

  test("the golden list covers every scenario") {
    assert(scenarios.map(_.spec.name).toSet == golden.keySet)
  }

  golden.keys.toVector.sorted.foreach { name =>
    test(s"golden utilities: $name") {
      assert(utilities(scenarios.find(_.spec.name == name).get) == golden(name))
    }
  }
}
