package cttbench

import java.io.{File, PrintWriter}
import java.time.Instant
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.streaming.StreamingQueryListener
import org.apache.spark.sql.streaming.StreamingQueryListener.{QueryIdleEvent, QueryProgressEvent, QueryStartedEvent, QueryTerminatedEvent}

/** One timed call into a layer. `traceId` groups the spans of one operation. */
final case class Span(id: Long, parent: Long, traceId: Long, name: String,
                      startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder used by the traced run. Spans are recorded around
  * the benchmark's calls into the program's public functions; nothing inside
  * the program is instrumented. With tracing off, [[span]] only runs `f`.
  */
object Trace {
  @volatile var enabled = false
  private val ids = new AtomicLong(0)
  private val spans = new ConcurrentLinkedQueue[Span]()
  private val stack = new ThreadLocal[List[(Long, Long)]] { // (spanId, traceId)
    override def initialValue(): List[(Long, Long)] = Nil
  }

  def span[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      val id = ids.incrementAndGet()
      val parents = stack.get()
      val (parent, traceId) = parents.headOption.map { case (p, t) => (p, t) }.getOrElse((0L, id))
      stack.set((id, traceId) :: parents)
      val t0 = System.nanoTime()
      try f
      finally {
        spans.add(Span(id, parent, traceId, name, t0, System.nanoTime()))
        stack.set(parents)
      }
    }

  def all: Seq[Span] = spans.asScala.toSeq.sortBy(_.startNs)

  /** Self time of each span: its duration minus the part of its interval
    * covered by its children (overlapping children are merged first).
    */
  def selfTimesNs(ss: Seq[Span]): Map[Long, Long] = {
    val children = ss.groupBy(_.parent)
    ss.map { s =>
      val kids = children.getOrElse(s.id, Seq.empty).map(k =>
        (math.max(k.startNs, s.startNs), math.min(k.endNs, s.endNs))).filter(k => k._2 > k._1)
        .sortBy(_._1)
      var covered = 0L; var curS = Long.MinValue; var curE = Long.MinValue
      kids.foreach { case (a, b) =>
        if (a > curE) { if (curE > curS) covered += curE - curS; curS = a; curE = b }
        else curE = math.max(curE, b)
      }
      if (curE > curS) covered += curE - curS
      s.id -> (s.durNs - covered)
    }.toMap
  }

  /** Per span name: calls, total seconds, self seconds. */
  def byName(ss: Seq[Span]): Seq[(String, Int, Double, Double)] = {
    val self = selfTimesNs(ss)
    ss.groupBy(_.name).toSeq.map { case (n, g) =>
      (n, g.size, g.map(_.durNs).sum / 1e9, g.map(s => self(s.id)).sum / 1e9)
    }.sortBy(r => -r._3)
  }

  /** Writes the spans as JSON lines and the per-layer table beside them. */
  def writeOut(dir: File, tag: String, layerTable: String): Unit = {
    dir.mkdirs()
    val ss = all
    val self = selfTimesNs(ss)
    val t0 = ss.headOption.map(_.startNs).getOrElse(0L)
    val w = new PrintWriter(new File(dir, s"$tag.spans.jsonl"))
    try ss.foreach { s =>
      w.println(s"""{"id":${s.id},"parent":${s.parent},"trace":${s.traceId},""" +
        s""""name":"${s.name}","start_us":${(s.startNs - t0) / 1000},""" +
        s""""end_us":${(s.endNs - t0) / 1000},"self_us":${self(s.id) / 1000}}""")
    } finally w.close()
    val t = new PrintWriter(new File(dir, s"$tag.layers.txt"))
    try t.print(layerTable) finally t.close()
  }

  def renderSpans(): String = {
    val rows = byName(all)
    val sb = new StringBuilder
    sb ++= f"${"span"}%-28s ${"calls"}%6s ${"total s"}%10s ${"self s"}%10s\n"
    rows.foreach { case (n, c, tot, self) => sb ++= f"$n%-28s $c%6d $tot%10.3f $self%10.3f\n" }
    sb.toString
  }
}

/** Engine counters of the traced run: jobs, tasks, shuffle bytes, executor
  * GC time and records read, summed over everything after registration.
  */
final class EngineListener extends SparkListener {
  val jobs = new AtomicLong; val tasks = new AtomicLong
  val shuffleWriteBytes = new AtomicLong; val gcMs = new AtomicLong
  val recordsRead = new AtomicLong
  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    Option(e.taskMetrics).foreach { m =>
      shuffleWriteBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      gcMs.addAndGet(m.jvmGCTime)
      recordsRead.addAndGet(m.inputMetrics.recordsRead)
    }
  }
}

/** Structured Streaming progress of the traced run, every query. */
final class StreamListener extends StreamingQueryListener {
  val progress = new ConcurrentLinkedQueue[QueryProgressEvent]()
  val terminated = new AtomicLong
  override def onQueryStarted(e: QueryStartedEvent): Unit = ()
  override def onQueryProgress(e: QueryProgressEvent): Unit = progress.add(e)
  override def onQueryIdle(e: QueryIdleEvent): Unit = ()
  override def onQueryTerminated(e: QueryTerminatedEvent): Unit = terminated.incrementAndGet()

  /** Progress events reach listeners asynchronously, in order, before the
    * query's termination event: wait for `n` terminations.
    */
  def awaitTerminated(n: Long, timeoutMs: Long = 30000): Boolean = {
    val end = System.currentTimeMillis() + timeoutMs
    while (terminated.get() < n && System.currentTimeMillis() < end) Thread.sleep(10)
    terminated.get() >= n
  }
}

/** Listener registration and the per-layer figures read back from them. */
final class Probes(spark: SparkSession) {
  val engine = new EngineListener
  val stream = new StreamListener
  spark.sparkContext.addSparkListener(engine)
  spark.streams.addListener(stream)

  private def dur(p: QueryProgressEvent, k: String): Double =
    Option(p.progress.durationMs.get(k)).map(_.longValue / 1000.0).getOrElse(0.0)

  /** stream.* metrics over every micro-batch seen so far; `callStartsMs`
    * are wall-clock starts of the ingest calls, for query start latency.
    */
  def streamMetrics(callStartsMs: Seq[Long], rec: Recorder): Unit = {
    val ps = stream.progress.asScala.toSeq
    rec.put("stream.batches", ps.size.toDouble, "count")
    rec.put("stream.empty_batches", ps.count(_.progress.numInputRows == 0).toDouble, "count")
    val firstBatchMs = ps.groupBy(_.progress.runId).values
      .map(g => Instant.parse(g.minBy(_.progress.batchId).progress.timestamp).toEpochMilli)
      .toSeq.sorted
    // A call that finds no new file runs no batch, so each first batch is
    // matched to the latest call that started before it.
    val starts = callStartsMs.sorted
    val startLag = firstBatchMs.flatMap(b => starts.filter(_ <= b).lastOption.map(c => (b - c) / 1000.0))
    rec.put("stream.query_start_s", startLag.sum, "s")
    rec.put("stream.planning_s", ps.map(dur(_, "queryPlanning")).sum, "s")
    rec.put("stream.latest_offset_s", ps.map(dur(_, "latestOffset")).sum, "s")
    rec.put("stream.add_batch_s", ps.map(dur(_, "addBatch")).sum, "s")
    rec.put("stream.wal_commit_s", ps.map(dur(_, "walCommit")).sum, "s")
    rec.put("stream.trigger_s", ps.map(dur(_, "triggerExecution")).sum, "s")
    val last = ps.filter(_.progress.stateOperators.nonEmpty).lastOption.map(_.progress.stateOperators)
    rec.put("stream.state_rows", last.map(_.map(_.numRowsTotal).sum.toDouble).getOrElse(0.0), "count")
    rec.put("stream.state_mb", last.map(_.map(_.memoryUsedBytes).sum / 1e6).getOrElse(0.0), "MB")
    rec.put("stream.rows_dropped_by_watermark",
      ps.flatMap(_.progress.stateOperators.map(_.numRowsDroppedByWatermark)).sum.toDouble, "count")
  }

  def engineMetrics(rec: Recorder): Unit = {
    rec.put("spark.jobs", engine.jobs.get.toDouble, "count")
    rec.put("spark.tasks", engine.tasks.get.toDouble, "count")
    rec.put("spark.shuffle_write_mb", engine.shuffleWriteBytes.get / 1e6, "MB")
    rec.put("spark.gc_s", engine.gcMs.get / 1000.0, "s")
  }
}
