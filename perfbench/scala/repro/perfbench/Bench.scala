package repro.perfbench

import java.io.File
import java.lang.management.ManagementFactory
import javax.management.ObjectName

import scala.util.{Failure, Success, Try}

import org.apache.spark.BenchBus
import org.apache.spark.sql.SparkSession

import repro.baselines.Baselines
import repro.core.{AugmentEngine, Candidate, CountingUtility, Metam, MetamConfig, Runner, SearchResult}
import repro.discovery.JoinDiscovery
import repro.jobs.TableIIJob
import repro.lake.{Scenario, ScenarioGen, ScenarioSpec, TaskKind}
import repro.profile.Profiler

/** Benchmark harness. Runs one workload of Table II scenarios, timing each
  * layer's public entry point from outside, checks every search result,
  * and prints the metrics as the last line of standard output.
  *
  * {{{
  * Bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] [--plain]
  * Bench --train
  * }}}
  *
  * `--plain` runs each scenario once through [[Runner.run]] itself, untimed,
  * and prints only the fingerprint: the reference the timed runs are
  * compared against.
  */
object Bench {

  // Fixed settings. A change that wins by editing these is not a speed-up.
  val Budget = 250
  val MaxCores = 4
  val ShufflePartitions = 8
  val DefaultSeed = 2023L

  /** Scenarios of each workload, in run order. */
  val Workloads: Map[String, Vector[String]] = Map(
    "tableII-causal" -> Vector("schools", "crime"),
    "tableII-classify" -> Vector("pharmacy"),
  )

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        traceOut: Option[String], plain: Boolean)

  def parse(argv: Array[String]): Args = {
    def value(flag: String): Option[String] = argv.indexOf(flag) match {
      case -1 => None
      case i if i + 1 < argv.length => Some(argv(i + 1))
      case _ => throw new IllegalArgumentException(s"$flag needs a value")
    }
    val workload = value("--workload").getOrElse(throw new IllegalArgumentException("--workload is required"))
    require(Workloads.contains(workload), s"unknown workload $workload (known: ${Workloads.keys.mkString(", ")})")
    Args(
      workload,
      value("--seed").map(_.toLong).getOrElse(DefaultSeed),
      value("--seconds").map(_.toDouble).getOrElse(30.0),
      value("--trace").contains("1"),
      value("--trace-out"),
      argv.contains("--plain"),
    )
  }

  def cores: Int = math.min(MaxCores, Runtime.getRuntime.availableProcessors())

  def session(): SparkSession = {
    val scratch = new File(".bench_build/spark").getAbsoluteFile
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", value = false)
      // The status store is kept even without a UI; a small one keeps the
      // retained-heap figure from depending on when it was last trimmed.
      .config("spark.ui.retainedJobs", 100L)
      .config("spark.ui.retainedStages", 100L)
      .config("spark.ui.retainedTasks", 1000L)
      .config("spark.sql.ui.retainedExecutions", 20L)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(scratch, "local").getPath)
      .config("spark.sql.warehouse.dir", new File(scratch, "warehouse").getPath)
      .getOrCreate()
  }

  def main(argv: Array[String]): Unit = {
    val args = if (argv.sameElements(Array("--train"))) None else Some(parse(argv))
    val t0 = System.nanoTime()
    val spark = session()
    try {
      val rec = new Recorder(spark.sparkContext, args.forall(_.trace))
      val sparkStartS = (System.nanoTime() - t0) / 1e9
      args match {
        case None => train(spark, rec)
        case Some(a) if a.plain => plain(spark, a)
        case Some(a) =>
          val report = run(spark, rec, a, sparkStartS)
          a.traceOut.foreach(f => rec.writeJsonl(new File(f)))
          report.print(a.trace)
      }
    } finally spark.stop()
  }

  /** `--train`: loads the classes a run uses and measures nothing. The build
    * runs it once to record the JVM's class-data-sharing archive.
    */
  private def train(spark: SparkSession, rec: Recorder): Unit = {
    Seq(TaskKind.Causal, TaskKind.Classification).foreach(k => pass(spark, rec, warmupScenario(k, DefaultSeed)))
    rec.settle()
  }

  def scenarios(args: Args): Vector[Scenario] = {
    val wanted = Workloads(args.workload)
    val all = ScenarioGen.tableII(args.seed)
    wanted.map(n => all.find(_.spec.name == n).get)
  }

  /** Fingerprint of the untimed reference: [[Runner.run]] on every scenario. */
  private def plain(spark: SparkSession, args: Args): Unit =
    scenarios(args).foreach { s =>
      val run = Runner.run(spark, s, TableIIJob.thetaFor(s), Budget, TableIIJob.Methods)
      TableIIJob.Methods.foreach(m => println(s"FP ${fingerprint(s, run.results(m))}"))
    }

  /** A scaled-down scenario of the same kind, run untimed before measuring
    * so that JIT compilation and Spark's first-job costs land in set-up
    * rather than in the first measured scenario.
    */
  def warmupScenario(kind: TaskKind, seed: Long): Scenario =
    ScenarioGen.scenario(ScenarioSpec("warmup", kind, rows = 350, nSignals = 1, dupsPerPlanted = 1,
      nIrrelevant = 8, nIrrelevantDups = 4, nTopicIrrelevant = 4, nErroneous = 8, seed = seed + 99))

  def fingerprint(s: Scenario, r: SearchResult): String =
    f"${s.spec.name}%-9s ${r.method}%-8s queries=${r.queriesUsed}%3d " +
      s"to_theta=${r.queriesTo(TableIIJob.thetaFor(s)).map(_.toString).getOrElse("-")} " +
      s"utility=${r.utility} at_budget=${r.utilityAt(Budget)} solution=${r.solution.map(_.id).mkString(",")}"

  /** The result invariants every (scenario, method) search must meet. */
  def violations(r: SearchResult, cands: Vector[Candidate]): Seq[String] = {
    val in01 = (u: Double) => u >= 0.0 && u <= 1.0
    val byId = cands.map(c => c.id -> c).toMap
    Seq(
      (r.queriesUsed > Budget) -> s"queriesUsed ${r.queriesUsed} > budget $Budget",
      r.curve.zip(r.curve.drop(1)).exists { case (a, b) => b._1 <= a._1 || b._2 < a._2 } -> "curve decreases",
      (!in01(r.utility) || !r.curve.forall(p => in01(p._2))) -> "utility outside [0,1]",
      !r.solution.forall(c => byId.get(c.id).contains(c)) -> "solution not a subset of the candidates",
    ).collect { case (true, msg) => msg }
  }

  /** EXPERIMENTS.md's Table II utilities at the budget (two decimals) and
    * METAM's queries to θ, which the default seed must reproduce.
    */
  val Expected: Map[String, (Map[String, Double], Option[Int])] = Map(
    "schools" -> (Map("METAM" -> 1.00, "MW" -> 0.60, "Overlap" -> 0.00, "Uniform" -> 0.40), Some(110)),
    "crime" -> (Map("METAM" -> 1.00, "MW" -> 0.20, "Overlap" -> 0.00, "Uniform" -> 0.60), Some(237)),
    "pharmacy" -> (Map("METAM" -> 0.92, "MW" -> 0.91, "Overlap" -> 0.65, "Uniform" -> 0.77), None),
  )

  /** Paper-shape checks of one scenario on the default seed. */
  def paperShape(p: ScenarioPass): Seq[String] = {
    val name = p.scenario.spec.name
    val res = p.searches.flatMap(s => s.result.toOption.map(s.method -> _)).toMap
    val (utilities, toTheta) = Expected(name)
    val atBudget = res.view.mapValues(_.utilityAt(Budget)).toMap
    val metam = atBudget.getOrElse("METAM", 0.0)
    val best = (atBudget - "METAM").values.maxOption.getOrElse(0.0)
    val metamToTheta = res.get("METAM").flatMap(_.queriesTo(TableIIJob.thetaFor(p.scenario)))
    val checks = Seq(
      (metam < best - 1e-9) -> s"METAM $metam below the best baseline $best",
      (metamToTheta != toTheta) -> s"METAM reached theta after $metamToTheta queries, expected $toTheta",
    ) ++ utilities.toSeq.map { case (m, u) =>
      atBudget.get(m).forall(v => math.abs(v - u) > 0.005) -> s"$m utility ${atBudget.get(m)}, expected $u"
    }
    checks.collect { case (true, msg) => s"$name: $msg" }
  }

  /** What the harness saw of one (scenario, method) search. */
  final case class Search(method: String, span: Span, result: Try[SearchResult], taskStarts: Array[Long],
                          taskEnds: Array[Long]) {
    def taskNs: Long = taskStarts.indices.map(i => taskEnds(i) - taskStarts(i)).sum

    /** Time between consecutive fresh-query completions. */
    def gapsNs: Seq[Long] = taskEnds.indices.drop(1).map(i => taskEnds(i) - taskEnds(i - 1))
  }

  final case class ScenarioPass(scenario: Scenario, candidates: Vector[Candidate], discovery: Span,
                                profile: Span, prefetch: Span, columns: Int, heapMb: Double,
                                searches: Vector[Search]) {
    def prepareNs: Long = discovery.ns + profile.ns + prefetch.ns
    def answerNs: Long = prepareNs + searches.find(_.method == "METAM").map(_.span.ns).getOrElse(0L)
  }

  /** Bytes of live heap objects, in MB, from the JVM's class histogram,
    * which collects garbage first. Heap "used" after `System.gc()` is not
    * used here: the parallel collector may leave dead objects uncompacted.
    */
  def retainedHeapMb(): Double = {
    val histogram = ManagementFactory.getPlatformMBeanServer.invoke(
      new ObjectName("com.sun.management:type=DiagnosticCommand"), "gcClassHistogram",
      Array[AnyRef](Array.empty[String]), Array(classOf[Array[String]].getName)).toString
    // The last line reads "Total <instances> <bytes>".
    histogram.trim.linesIterator.toSeq.last.trim.split("\\s+")(2).toLong / (1024.0 * 1024.0)
  }

  /** [[Runner.run]] step for step, with every layer call timed and the task
    * wrapped so that each fresh query is timestamped.
    */
  def pass(spark: SparkSession, rec: Recorder, s: Scenario): ScenarioPass = {
    val name = s.spec.name
    val theta = TableIIJob.thetaFor(s)
    val engine = new AugmentEngine(spark, s.input, s.lake)
    val (cands, dSpan) = rec.layer("discovery", name) {
      JoinDiscovery.candidatesFor(spark, s.input, s.lake, 0.03, 1)
    }
    require(cands.nonEmpty, s"discovery produced no candidates for $name")
    val (profiles, pSpan) = rec.layer("profile", name) {
      Profiler.profileAll(spark, engine, cands, s.profileTargetCol)
    }
    val (_, fSpan) = rec.layer("prefetch", name)(engine.prefetch(cands))
    val columns = engine.materializations
    BenchBus.drain(spark.sparkContext)
    val heap = retainedHeapMb()
    val searches = TableIIJob.Methods.map { m =>
      val task = new TimedTask(s.task, rec, name)
      val util = new CountingUtility(engine, task, Budget)
      val (res, span) = rec.layer(s"search.$m", name) {
        Try(m match {
          case "METAM" => Metam.run(cands, profiles, util, MetamConfig().copy(theta = theta))
          case "MW" => Baselines.multiplicativeWeights(cands, profiles, util, theta, seed = 4242)
          case "Overlap" => Baselines.overlapRanking(cands, profiles, util, theta)
          case "Uniform" => Baselines.uniformSampling(cands, util, theta, 4242)
        })
      }
      Search(m, span, res, task.starts.result(), task.ends.result())
    }
    ScenarioPass(s, cands, dSpan, pSpan, fSpan, columns, heap, searches)
  }

  def run(spark: SparkSession, rec: Recorder, args: Args, sparkStartS: Double): Report = {
    val setupStart = System.nanoTime()
    val (scens, genSpan) = rec.layer("lake.gen", "all")(scenarios(args))
    pass(spark, rec, warmupScenario(scens.head.spec.kind, args.seed))
    val setupS = sparkStartS + (System.nanoTime() - setupStart) / 1e9
    val measuredFrom = rec.spans.size

    // Whole cycles over the workload's scenarios; another one starts only
    // if it is expected to end within the run's seconds.
    val passes = Vector.newBuilder[ScenarioPass]
    val cycleNs = Vector.newBuilder[Long]
    val measureStart = System.nanoTime()
    var more = true
    while (more) {
      val c0 = System.nanoTime()
      scens.foreach(s => passes += pass(spark, rec, s))
      cycleNs += System.nanoTime() - c0
      more = System.nanoTime() - measureStart + Sample.median(cycleNs.result().map(_.toDouble)) <= args.seconds * 1e9
    }
    rec.settle()

    val ps = passes.result()
    val cycles = cycleNs.result()
    val searches = ps.flatMap(_.searches)

    var failed = 0
    val problems = Vector.newBuilder[String]
    ps.foreach { p =>
      p.searches.foreach { s =>
        val v = s.result match {
          case Success(r) => violations(r, p.candidates)
          case Failure(e) => Seq(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}")
        }
        if (v.nonEmpty) failed += 1
        v.foreach(msg => problems += s"${p.scenario.spec.name}/${s.method}: $msg")
      }
    }
    val fps = ps.map(p => p.scenario.spec.name ->
      p.searches.map(s => s.result.map(fingerprint(p.scenario, _)).getOrElse(s"${p.scenario.spec.name} ${s.method} failed")))
    // Every repeat of a scenario must reproduce its first pass exactly.
    fps.groupBy(_._1).foreach { case (name, reps) =>
      if (reps.map(_._2).distinct.size > 1) problems += s"$name: repeated passes disagree"
    }
    if (args.seed == DefaultSeed) ps.take(scens.size).foreach(p => problems ++= paperShape(p))

    val metrics = new Metrics(rec, ps, searches, cycles, setupS, genSpan, rec.spans.drop(measuredFrom).toVector)
    val prob = problems.result()
    Report(
      correct = prob.isEmpty,
      attempted = searches.size,
      failed = failed,
      problems = prob,
      fingerprint = fps.take(scens.size).flatMap(_._2),
      endToEnd = metrics.endToEnd,
      perLayer = metrics.perLayer,
      notes = Seq(
        s"workload=${args.workload} seed=${args.seed} cycles=${cycles.size} passes=${ps.size} budget=$Budget " +
          s"spark=local[$cores] shuffle_partitions=$ShufflePartitions heap_max_mb=${Runtime.getRuntime.maxMemory >> 20}",
      ) ++ metrics.notes,
    )
  }
}
