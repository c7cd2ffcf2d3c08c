package repro.perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.{BenchBus, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerStageCompleted,
  SparkListenerStageSubmitted}

import repro.lake.LocalTable
import repro.tasks.Task

/** One timed call into a layer. Times are ns since the recorder started;
  * `parent` is the enclosing span's id, -1 at top level.
  */
final case class Span(id: Int, name: String, scenario: String, parent: Int, start: Long, end: Long) {
  def ns: Long = end - start
}

/** Times every layer call the harness makes, from outside the layer.
  *
  * Untraced, it keeps only the layer spans the end-to-end metrics are
  * computed from. Traced, it also keeps a span per task call, attributes
  * Spark jobs and shuffle bytes to the layer span that issued them (each
  * layer call runs under its own Spark job group), and GC time per span.
  */
final class Recorder(sc: SparkContext, traced: Boolean) {
  val t0: Long = System.nanoTime()
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  private var nextId = 0
  private var current = -1

  /** GC ms and Spark counters per span id (traced runs only). */
  val gcMs: mutable.HashMap[Int, Long] = mutable.HashMap.empty
  private val jobs = mutable.HashMap.empty[Int, Int].withDefaultValue(0)
  private val shuffleBytes = mutable.HashMap.empty[Int, Long].withDefaultValue(0L)

  private val GroupPrefix = "perfbench-"

  private object listener extends SparkListener {
    private val stageSpan = mutable.HashMap.empty[Int, Int]

    private def spanOf(p: java.util.Properties): Option[Int] =
      Option(p).flatMap(x => Option(x.getProperty("spark.jobGroup.id")))
        .filter(_.startsWith(GroupPrefix)).map(_.stripPrefix(GroupPrefix).toInt)

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      spanOf(e.properties).foreach(id => jobs(id) += 1)
    }
    override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
      spanOf(e.properties).foreach(id => stageSpan(e.stageInfo.stageId) = id)
    }
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
      val info = e.stageInfo
      stageSpan.remove(info.stageId).foreach { id =>
        if (info.taskMetrics != null) shuffleBytes(id) += info.taskMetrics.shuffleWriteMetrics.bytesWritten
      }
    }
  }
  if (traced) sc.addSparkListener(listener)

  private def gcNow(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Run `body` as one call into layer `name`. */
  def layer[A](name: String, scenario: String)(body: => A): (A, Span) = {
    val id = nextId; nextId += 1
    val parent = current
    current = id
    val gc0 = if (traced) gcNow() else 0L
    if (traced) sc.setJobGroup(GroupPrefix + id, name)
    val start = System.nanoTime()
    val out =
      try body
      finally {
        if (traced) sc.clearJobGroup()
        current = parent
      }
    val span = Span(id, name, scenario, parent, start - t0, System.nanoTime() - t0)
    spans += span
    if (traced) gcMs(id) = gcNow() - gc0
    (out, span)
  }

  /** A task-call span under the current layer call (traced runs only). */
  def taskCall(scenario: String, start: Long, end: Long): Unit =
    if (traced) {
      spans += Span(nextId, "task.utility", scenario, current, start - t0, end - t0)
      nextId += 1
    }

  /** Spark jobs and shuffle bytes issued under span `id`; call after [[settle]]. */
  def sparkJobs(id: Int): Int = jobs(id)
  def shuffleKb(id: Int): Double = shuffleBytes(id) / 1024.0

  /** Wait until the listener has seen every event of the jobs run so far. */
  def settle(): Unit = if (traced) BenchBus.drain(sc)

  /** Self time of a span: its duration minus the time its children cover. */
  def selfNs(s: Span): Long = s.ns - spans.iterator.filter(_.parent == s.id).map(_.ns).sum

  /** Write every span, with its counters, as one JSON object per line. */
  def writeJsonl(file: File): Unit = {
    file.getAbsoluteFile.getParentFile.mkdirs()
    val w = new PrintWriter(file, "UTF-8")
    try spans.sortBy(_.start).foreach { s =>
      val counters =
        if (s.name == "task.utility") ""
        else s""","self_ns":${selfNs(s)},"gc_ms":${gcMs.getOrElse(s.id, 0L)},""" +
          s""""spark_jobs":${jobs(s.id)},"shuffle_bytes":${shuffleBytes(s.id)}"""
      w.println(s"""{"id":${s.id},"name":"${s.name}","scenario":"${s.scenario}","parent":${s.parent},""" +
        s""""start_ns":${s.start},"end_ns":${s.end}$counters}""")
    }
    finally w.close()
  }
}

/** Delegates to `inner` and timestamps every call. [[repro.core.CountingUtility]]
  * memoises utilities, so each call is one fresh query.
  */
final class TimedTask(inner: Task, rec: Recorder, scenario: String) extends Task {
  def name: String = inner.name
  val starts: mutable.ArrayBuilder.ofLong = new mutable.ArrayBuilder.ofLong
  val ends: mutable.ArrayBuilder.ofLong = new mutable.ArrayBuilder.ofLong

  def utility(table: LocalTable): Double = {
    val s = System.nanoTime()
    val u = inner.utility(table)
    val e = System.nanoTime()
    starts += s
    ends += e
    rec.taskCall(scenario, s, e)
    u
  }
}
