package cttbench

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.execution.FileSourceScanExec
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.functions.col
import repro.core.Schemas
import repro.iot.SensorFleet
import repro.tsdb.TsdbStore

/** Dashboard reads: one closed-loop client issues a seeded mix of TSDB
  * reads against a store filled by the program's own streaming ingest, so
  * the reads see the file layout ingest really produces. Ranges favour the
  * most recent days, as a dashboard's do.
  */
object Reads {

  sealed trait Op { def kind: String }
  final case class Query(metric: String, deviceId: String, day: Int) extends Op { def kind = "query" }
  final case class Downsample(metric: String, day: Int) extends Op { def kind = "downsample" }
  final case class Latest(metric: String) extends Op { def kind = "latest" }

  private val metricNames = TsdbStore.StandardMetrics.values.toIndexedSeq.sorted
  private def dayStart(day: Int): Long = Schemas.EpochStart + day * 86400L

  /** Half single-device day queries, a quarter all-device hourly averages
    * over a day, a quarter latest-value panels; day d back from the newest
    * with probability 2^-(d+1).
    */
  def nextOp(rnd: java.util.Random, days: Int, devices: IndexedSeq[String]): Op = {
    val metric = metricNames(rnd.nextInt(metricNames.size))
    var back = 0
    while (back < days - 1 && rnd.nextBoolean()) back += 1
    val day = days - 1 - back
    val u = rnd.nextDouble()
    if (u < 0.5) Query(metric, devices(rnd.nextInt(devices.size)), day)
    else if (u < 0.75) Downsample(metric, day)
    else Latest(metric)
  }

  def frame(spark: SparkSession, store: TsdbStore, op: Op): DataFrame = op match {
    case Query(m, d, day) =>
      store.query(spark, m, dayStart(day), dayStart(day + 1), Map("deviceId" -> d))
        .select("tsEpoch", "value", "deviceId", "city")
    case Downsample(m, day) =>
      store.downsample(spark, m, dayStart(day), dayStart(day + 1), 60)
        .select("windowStartEpoch", "value", "deviceId", "city")
    case Latest(m) => store.latest(spark, m).select("tsEpoch", "value", "deviceId", "city")
  }

  /** A result as (time, value, deviceId, city) tuples in (time, deviceId)
    * order; values are compared with a tolerance, so they cannot order rows.
    */
  type Result = Seq[(Long, Double, String, String)]
  private def byKey(p: (Long, Double, String, String)) = (p._1, p._3, p._4)
  private def rows(rs: Array[Row]): Result =
    rs.toSeq.map(r => (r.getLong(0), r.getDouble(1), r.getString(2), r.getString(3))).sortBy(byKey)

  /** The same op evaluated on the in-memory reference points. */
  def reference(points: Map[String, Seq[(Long, Double, String, String)]], op: Op): Result = op match {
    case Query(m, d, day) =>
      points(m).filter(p => p._3 == d && p._1 >= dayStart(day) && p._1 < dayStart(day + 1)).sortBy(byKey)
    case Downsample(m, day) =>
      points(m).filter(p => p._1 >= dayStart(day) && p._1 < dayStart(day + 1))
        .groupBy(p => (p._1 / 3600L * 3600L, p._3, p._4)).toSeq
        .map { case ((w, d, c), ps) => (w, ps.map(_._2).sum / ps.size, d, c) }.sortBy(byKey)
    case Latest(m) =>
      points(m).groupBy(_._3).values.map(_.maxBy(_._1)).toSeq.sortBy(byKey)
  }

  def same(a: Result, b: Result): Boolean =
    a.size == b.size && a.zip(b).forall { case (x, y) =>
      x._1 == y._1 && x._3 == y._3 && x._4 == y._4 &&
        math.abs(x._2 - y._2) <= 1e-9 * math.max(1.0, math.abs(y._2))
    }

  private object Plans extends AdaptiveSparkPlanHelper {
    def filesRead(df: DataFrame): Long = collect(df.queryExecution.executedPlan) {
      case s: FileSourceScanExec => s.metrics.get("numFiles").map(_.value).getOrElse(0L)
    }.sum
  }

  /** Issues `ops` seeded reads against `store`, one at a time, after one
    * warm-up read of each kind, and checks every result against the same
    * read evaluated in memory on `okReadings`, the batch reprocess of the
    * store's bridge. Records the per-kind latencies and, when traced, the
    * TSDB read-layer figures.
    */
  def run(spark: SparkSession, store: TsdbStore, okReadings: DataFrame, days: Int, seed: Long,
          ops: Int, rec: Recorder, probes: Option[Probes]): Unit = {
    val devices = SensorFleet.nodes(seed).map(_.deviceId).toIndexedSeq
    val rnd = new java.util.Random(seed)
    def execute(op: Op): (Double, Result, DataFrame) = {
      val df = frame(spark, store, op)
      val (s, rs) = Stats.timed(Trace.span(s"tsdb.${op.kind}")(df.collect()))
      (s, rows(rs), df)
    }

    Seq(Query(metricNames.head, devices.head, days - 1), Downsample(metricNames.head, days - 1),
      Latest(metricNames.head)).foreach(op => rec.op(s"warm-up ${op.kind}")(execute(op)))

    val done = mutable.ArrayBuffer.empty[(Op, Double, Result)]
    val filesPerOp = mutable.ArrayBuffer.empty[Double]
    val scannedPerRow = mutable.ArrayBuffer.empty[Double]
    for (_ <- 1 to ops) {
      val op = nextOp(rnd, days, devices)
      val read0 = probes.map(_.engine.recordsRead.get).getOrElse(0L)
      rec.op(s"read $op")(execute(op)).foreach { case (s, r, df) =>
        done += ((op, s, r))
        probes.foreach { p =>
          filesPerOp += Plans.filesRead(df).toDouble
          scannedPerRow += (p.engine.recordsRead.get - read0).toDouble / math.max(1, r.size)
        }
      }
    }
    Seq("query", "downsample", "latest").foreach { k =>
      val ks = done.filter(_._1.kind == k).map(_._2 * 1000).toSeq
      if (ks.nonEmpty) {
        rec.put(s"${k}_p50_ms", Stats.median(ks), "ms")
        rec.put(s"${k}_p95_ms", Stats.tail(ks), "ms")
      }
    }
    rec.note("dashboard reads: " +
      Seq("query", "downsample", "latest").map(k => s"$k ${done.count(_._1.kind == k)}").mkString(", "))
    if (filesPerOp.nonEmpty) rec.put("tsdb.files_per_query", Stats.median(filesPerOp.toSeq), "count")
    if (scannedPerRow.nonEmpty)
      rec.put("tsdb.rows_scanned_per_row", Stats.median(scannedPerRow.toSeq), "ratio")
    if (probes.nonEmpty) rec.put("tsdb.discover_ms", discoverMs(spark, store), "ms")

    rec.op("reference points") {
      val metricCols = TsdbStore.StandardMetrics.toSeq
      val rs = okReadings.select(("tsEpoch" +: "deviceId" +: "city" +: metricCols.map(_._1)).map(col): _*)
        .collect()
      val points = metricCols.zipWithIndex.map { case ((_, m), i) =>
        m -> rs.toSeq.map(r => (r.getLong(0), r.getDouble(3 + i), r.getString(1), r.getString(2)))
      }.toMap
      val refs = mutable.Map.empty[Op, Result]
      done.foreach { case (op, _, got) =>
        val want = refs.getOrElseUpdate(op, reference(points, op))
        rec.check(s"read $op equals reference", same(got, want),
          s"${got.size} rows, reference ${want.size}")
      }
    }
  }

  /** Median time of `spark.read.parquet` on the store root (file listing
    * and schema discovery, which every read repeats).
    */
  def discoverMs(spark: SparkSession, store: TsdbStore): Double =
    Stats.median((1 to 3).map(_ => Stats.timed(Trace.span("tsdb.discover")(
      spark.read.parquet(store.path)))._1 * 1000))
}
