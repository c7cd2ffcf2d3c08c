package repro.perfbench

import repro.jobs.TableIIJob
import repro.perfbench.Bench.{Budget, ScenarioPass, Search}

object Sample {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linearly interpolated quantile of a non-empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }
}

final case class Metric(name: String, value: Double, unit: String, samples: Int)

/** Result of one run: counts, fingerprint lines and metrics by name. */
final case class Report(correct: Boolean, attempted: Int, failed: Int, problems: Seq[String],
                        fingerprint: Seq[String], endToEnd: Seq[Metric], perLayer: Seq[Metric],
                        notes: Seq[String]) {

  /** Human-readable lines, then the result as one JSON object on the last
    * line: end-to-end metrics untraced, per-layer metrics traced.
    */
  def print(trace: Boolean): Unit = {
    fingerprint.foreach(l => println(s"FP $l"))
    problems.foreach(p => println(s"PROBLEM $p"))
    notes.foreach(n => println(s"NOTE $n"))
    val shown = if (trace) perLayer else endToEnd
    shown.foreach(m => println(f"METRIC ${m.name}%-24s ${m.value}%14.4f ${m.unit}%-5s n=${m.samples}"))
    val metrics = shown.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""").mkString(", ")
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$metrics}}""")
  }
}

/** The benchmark's metrics, computed from the measured passes. Timings are
  * medians over passes (one pass = one scenario prepared and searched by
  * every method); `samples` says how many values each one summarises.
  */
final class Metrics(rec: Recorder, ps: Vector[ScenarioPass], searches: Vector[Search], cycles: Vector[Long],
                    setupS: Double, gen: Span, measured: Vector[Span]) {
  import Sample.{median, quantile}

  private def ms(ns: Long): Double = ns / 1e6
  private val gaps = searches.flatMap(_.gapsNs).map(ms)
  private val calls = searches.flatMap(s => s.taskStarts.indices.map(i => ms(s.taskEnds(i) - s.taskStarts(i))))
  private val freshQueries = searches.map(_.taskEnds.length).sum

  def endToEnd: Seq[Metric] = Seq(
    Metric("setup_s", setupS, "s", 1),
    Metric("prepare_s", median(ps.map(_.prepareNs / 1e9)), "s", ps.size),
    Metric("answer_s", median(ps.map(_.answerNs / 1e9)), "s", ps.size),
    Metric("retained_heap_mb", median(ps.map(_.heapMb)), "MB", ps.size),
  )

  private def gcMs(spans: Seq[Span]): Double = median(spans.map(s => rec.gcMs.getOrElse(s.id, 0L).toDouble))

  private def layer(name: String, spans: Seq[Span]): Seq[Metric] = Seq(
    Metric(s"$name.ms", median(spans.map(s => ms(s.ns))), "ms", spans.size),
    Metric(s"$name.spark_jobs", median(spans.map(s => rec.sparkJobs(s.id).toDouble)), "count", spans.size),
    Metric(s"$name.shuffle_kb", median(spans.map(s => rec.shuffleKb(s.id))), "KB", spans.size),
    Metric(s"jvm.gc_ms.$name", gcMs(spans), "ms", spans.size),
  )

  def perLayer: Seq[Metric] = {
    val perMethod = TableIIJob.Methods.flatMap { m =>
      val ss = searches.filter(_.method == m)
      Seq(
        Metric(s"search.$m.ms", median(ss.map(s => ms(s.span.ns))), "ms", ss.size),
        Metric(s"search.$m.self_ms", median(ss.map(s => ms(s.span.ns - s.taskNs))), "ms", ss.size),
      )
    }
    // METAM's cost on the paper's axis: queries until θ, or the whole
    // budget when θ is never reached, summed over the workload's scenarios.
    val metam = ps.take(ps.size / cycles.size).flatMap { p =>
      p.searches.find(_.method == "METAM").flatMap(_.result.toOption).map(r => (p, r))
    }
    Seq(Metric("lake.gen_ms", ms(gen.ns), "ms", 1)) ++
      layer("discovery", ps.map(_.discovery)) ++
      Seq(Metric("discovery.candidates", median(ps.map(_.candidates.size.toDouble)), "count", ps.size)) ++
      layer("profile", ps.map(_.profile)) ++
      layer("prefetch", ps.map(_.prefetch)) ++
      Seq(Metric("prefetch.columns", median(ps.map(_.columns.toDouble)), "count", ps.size)) ++
      perMethod ++
      Seq(
        Metric("search.total_ms", median(ps.map(_.searches.map(s => ms(s.span.ns)).sum)), "ms", ps.size),
        Metric("search_qps", freshQueries / (searches.map(_.span.ns).sum / 1e9), "1/s", freshQueries),
        Metric("query_ms.p50", quantile(gaps, 0.5), "ms", gaps.size),
        Metric("query_ms.p99", quantile(gaps, 0.99), "ms", gaps.size),
        Metric("jvm.gc_ms.search", gcMs(searches.map(_.span)), "ms", searches.size),
        Metric("task.ms", searches.map(s => ms(s.taskNs)).sum / cycles.size, "ms", cycles.size),
        Metric("task.calls", freshQueries.toDouble / cycles.size, "count", cycles.size),
        Metric("task.call_ms.p50", quantile(calls, 0.5), "ms", calls.size),
        Metric("task.call_ms.p99", quantile(calls, 0.99), "ms", calls.size),
        Metric("metam.queries", metam.map { case (p, r) =>
          r.queriesTo(TableIIJob.thetaFor(p.scenario)).getOrElse(Budget).toDouble }.sum, "count", metam.size),
        Metric("metam.utility", metam.map(_._2.utilityAt(Budget)).sum / metam.size, "utility", metam.size),
      )
  }

  /** Share of prepare time the discovery, profile and prefetch spans cover
    * by their self time, and the whole measured interval's span coverage.
    */
  def notes: Seq[String] = {
    val prepSelf = ps.map(p => Seq(p.discovery, p.profile, p.prefetch).map(rec.selfNs).sum).sum.toDouble
    val prep = ps.map(_.prepareNs).sum.toDouble
    val top = measured.filter(_.parent < 0).map(_.ns).sum.toDouble
    Seq(f"prepare self-time coverage ${100 * prepSelf / prep}%.1f%%; layer spans cover " +
      f"${100 * top / cycles.sum}%.1f%% of the measured ${cycles.sum / 1e9}%.1f s")
  }
}
