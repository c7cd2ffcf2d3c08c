package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.Runner
import repro.lake.{Scenario, ScenarioGen, TaskKind}

/** spark-submit entrypoint reproducing Table II (utility of METAM and the
  * baselines within a fixed query budget across six datasets):
  * `spark-submit --class repro.jobs.TableIIJob <jar> [budget]`.
  */
object TableIIJob {

  /** The methods Table II compares: [[Runner.DefaultMethods]]. */
  val Methods: Vector[String] = Runner.DefaultMethods

  /** Paper's Table II utilities, per dataset and method. */
  val PaperRows: Seq[(String, Map[String, Double])] = Seq(
    ("Schools (C)", Map("METAM" -> 0.80, "MW" -> 0.20, "Overlap" -> 0.0, "Uniform" -> 0.20)),
    ("Taxi (C)", Map("METAM" -> 1.0, "MW" -> 0.5, "Overlap" -> 0.5, "Uniform" -> 0.5)),
    ("Crime (C)", Map("METAM" -> 0.90, "MW" -> 0.20, "Overlap" -> 0.1, "Uniform" -> 0.1)),
    ("Housing prices (C)", Map("METAM" -> 0.75, "MW" -> 0.25, "Overlap" -> 0.0, "Uniform" -> 0.25)),
    ("Pharmacy", Map("METAM" -> 0.95, "MW" -> 0.43, "Overlap" -> 0.43, "Uniform" -> 0.25)),
    ("Grocery stores", Map("METAM" -> 0.92, "MW" -> 0.37, "Overlap" -> 0.10, "Uniform" -> 0.17)),
  )

  /** Utility threshold per scenario: causal tasks target full recovery of
    * the ground truth; classification tasks a high-F1 plateau.
    */
  def thetaFor(s: Scenario): Double = s.spec.kind match {
    case TaskKind.Causal => 1.0
    case _ => 0.97
  }

  def runAll(spark: SparkSession, budget: Int): Seq[(String, Map[String, Double])] =
    ScenarioGen.tableII().map { s =>
      val run = Runner.run(spark, s, thetaFor(s), budget, Methods)
      s.spec.name -> Methods.map(m => m -> run.results(m).utilityAt(budget)).toMap
    }

  def render(measured: Seq[(String, Map[String, Double])], budget: Int): String = {
    val sb = new StringBuilder
    sb.append(s"TABLE II: Utility within a $budget-query budget (paper used <=1000 queries)\n")
    sb.append(f"${"Dataset"}%-20s ${Methods.map(m => f"$m%-16s").mkString}\n")
    PaperRows.zip(measured).foreach { case ((pname, paper), (_, ours)) =>
      val cells = Methods.map(m => f"${paper(m)}%.2f | ${ours(m)}%.2f    ").mkString
      sb.append(f"$pname%-20s $cells\n")
    }
    sb.append("(each cell: paper | this reproduction)\n")
    sb.toString
  }

  def main(args: Array[String]): Unit = {
    val budget = args.headOption.map(_.toInt).getOrElse(250)
    val spark = SparkSession.builder.appName("metam-table-ii").getOrCreate()
    try println(render(runAll(spark, budget), budget))
    finally spark.stop()
  }
}
