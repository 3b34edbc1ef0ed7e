package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed interval around a call into a layer. Spans of one request share
  * `request`; `parent` is the id of the enclosing span (-1 at the root).
  */
final class Span(val id: Int, val name: String, val parent: Int, val request: Int, val startNs: Long) {
  var endNs: Long     = 0L
  var gcMs: Long      = 0L
  var gcCount: Long   = 0L
  def durationNs: Long = endNs - startNs
}

/** Spark task metrics summed per span. A job is attributed to the span that
  * was innermost on the driver thread when the job was submitted; the span id
  * travels with the job as a local property.
  */
final class TaskCounters extends SparkListener {
  final class Sums { var tasks, runMs, shuffleBytes = 0L }
  private val stageSpan = new ConcurrentHashMap[Integer, Integer]()
  private val sums      = new ConcurrentHashMap[Int, Sums]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanProperty)))
    span.foreach(s => e.stageIds.foreach(id => stageSpan.put(id, s.toInt)))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val span = stageSpan.get(e.stageId)
    if (span != null && e.taskMetrics != null) {
      val m = e.taskMetrics
      val s = sums.computeIfAbsent(span.intValue, _ => new Sums)
      s.synchronized {
        s.tasks += 1
        s.runMs += m.executorRunTime
        s.shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  def of(span: Int): Option[Sums] = Option(sums.get(span))
}

/** In-memory span recorder for the traced run. Spans are opened and closed on
  * the driver thread only; nothing is written until the run ends.
  */
object Tracer {
  val SpanProperty = "perfbench.span"

  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector
  def gcTotals: (Long, Long) =
    (gcBeans.map(b => math.max(0L, b.getCollectionTime)).sum,
     gcBeans.map(b => math.max(0L, b.getCollectionCount)).sum)

  private var sc: SparkContext = _
  private var enabled          = false
  private var request          = -1
  private val stack            = mutable.Stack.empty[(Span, Long, Long)]
  val spans                    = mutable.ArrayBuffer.empty[Span]
  val tasks                    = new TaskCounters

  def enable(context: SparkContext): Unit = {
    sc = context
    enabled = true
    sc.addSparkListener(tasks)
  }

  /** Runs `f` as one request: spans opened inside it carry the request id. */
  def request[A](id: Int)(f: => A): A = {
    request = id
    try f finally request = -1
  }

  /** Times `f` as a span called `name` when tracing is on; runs it bare
    * otherwise.
    */
  def span[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      val parent = stack.headOption.map(_._1.id).getOrElse(-1)
      val (gcMs, gcCount) = gcTotals
      val s = new Span(spans.size, name, parent, request, System.nanoTime())
      spans += s
      stack.push((s, gcMs, gcCount))
      sc.setLocalProperty(SpanProperty, s.id.toString)
      try f
      finally {
        s.endNs = System.nanoTime()
        val (gcMs1, gcCount1) = gcTotals
        s.gcMs = gcMs1 - gcMs
        s.gcCount = gcCount1 - gcCount
        stack.pop()
        sc.setLocalProperty(SpanProperty, stack.headOption.map(_._1.id.toString).orNull)
      }
    }

  /** Delivers pending listener events so task counters are complete. */
  def drain(): Unit = if (enabled) org.apache.spark.ListenerBusDrain(sc)

  /** Per-layer totals of one request: self time (span minus children), GC
    * self time and count, and Spark task counters, keyed "layer.metric".
    */
  def layerTotals(requestId: Int): Map[String, Double] = {
    val mine     = spans.filter(_.request == requestId)
    val childNs  = mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    val childGc  = mutable.HashMap.empty[Int, (Long, Long)].withDefaultValue((0L, 0L))
    for (s <- mine if s.parent >= 0) {
      childNs(s.parent) += s.durationNs
      val (ms, n) = childGc(s.parent)
      childGc(s.parent) = (ms + s.gcMs, n + s.gcCount)
    }
    val out = mutable.HashMap.empty[String, Double].withDefaultValue(0.0)
    for (s <- mine) {
      out(s"${s.name}.busy_s") += (s.durationNs - childNs(s.id)) / 1e9
      out("jvm.gc_s") += (s.gcMs - childGc(s.id)._1) / 1e3
      out("jvm.gc_count") += (s.gcCount - childGc(s.id)._2).toDouble
      tasks.of(s.id).foreach { t =>
        out(s"${s.name}.tasks") += t.tasks.toDouble
        out(s"${s.name}.executor_run_s") += t.runMs / 1e3
        out(s"${s.name}.shuffle_mb") += t.shuffleBytes / 1048576.0
      }
    }
    out.toMap
  }

  /** The recorded spans as JSON lines, for the trace file. */
  def spanLines: Iterator[String] = spans.iterator.map { s =>
    val t = tasks.of(s.id)
    s"""{"id": ${s.id}, "name": "${s.name}", "parent": ${s.parent}, "request": ${s.request}, """ +
      s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}, "gc_ms": ${s.gcMs}, "gc_count": ${s.gcCount}, """ +
      s""""tasks": ${t.fold(0L)(_.tasks)}, "executor_run_ms": ${t.fold(0L)(_.runMs)}, "shuffle_bytes": ${t.fold(0L)(_.shuffleBytes)}}"""
  }
}
