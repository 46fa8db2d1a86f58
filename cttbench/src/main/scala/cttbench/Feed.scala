package cttbench

import java.io.File
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, lit, sum, when}
import repro.core.{Pipeline, Schemas, StreamingEtl}
import repro.iot.{SensorFleet, SensorSimulator}
import repro.tsdb.TsdbStore

/** The set-up and checking steps the workloads share: bridge files, stream
  * ingest calls, store statistics and the store-versus-batch parity check.
  */
object Feed {

  def sfOfDays(days: Int): Double = days / Schemas.DaysPerSf

  /** Simulate → radio → bridge directory, as `Pipeline.writeBridge` does.
    * The traced run first times the simulate and radio prefixes on their own.
    */
  def writeBridge(spark: SparkSession, days: Int, seed: Long, dir: File,
                  rec: Recorder): Long = {
    val sf = sfOfDays(days)
    if (Trace.enabled) {
      val (simS, ups) = Stats.timed(Trace.span("iot.simulate")(
        SensorSimulator.uplinks(spark, sf, seed).count()))
      val (radioS, pkts) = Stats.timed(Trace.span("lorawan.transmit")(
        Pipeline.receivedPackets(spark, sf, seed).count()))
      rec.put("iot.simulate_s", simS, "s")
      rec.put("iot.uplinks", ups.toDouble, "count")
      rec.put("lorawan.transmit_s", math.max(0.0, radioS - simS), "s")
      rec.put("lorawan.packets_per_uplink", pkts.toDouble / ups, "ratio")
    }
    val (s, n) = Stats.timed(Trace.span("mqtt.writeBridge")(
      Pipeline.writeBridge(spark, sf, seed, dir.getPath)))
    if (Trace.enabled) {
      rec.put("mqtt.bridge_write_s", s, "s")
      rec.put("mqtt.bridge_files", bridgeFiles(dir).size.toDouble, "count")
    }
    n
  }

  def bridgeFiles(dir: File): Seq[File] =
    Option(dir.listFiles()).toSeq.flatten.filter(f =>
      f.isFile && f.getName.endsWith(".json") && !f.getName.startsWith("_") &&
        !f.getName.startsWith("."))

  private val callStarts = new java.util.concurrent.ConcurrentLinkedQueue[java.lang.Long]()

  /** Wall-clock starts (ms) of every ingest call so far. */
  def callStartsMs: Seq[Long] = callStarts.toArray.toSeq.map(_.asInstanceOf[java.lang.Long].longValue)

  /** One `Pipeline.ingestBridge` call; returns its seconds. */
  def ingest(spark: SparkSession, bridge: File, checkpoint: File, store: TsdbStore,
             seed: Long): Double = {
    callStarts.add(System.currentTimeMillis())
    Stats.timed(Trace.span("core.ingestBridge")(
      Pipeline.ingestBridge(spark, bridge.getPath, checkpoint.getPath, store, seed)))._1
  }

  /** OK readings of the batch reprocess of a bridge directory. */
  def reprocess(spark: SparkSession, bridge: File, seed: Long): DataFrame =
    StreamingEtl.okOnly(StreamingEtl.batch(spark, bridge.getPath, SensorFleet.toDF(spark, seed)))

  /** Every stored point, read straight from the store's Parquet files. */
  def storedPoints(spark: SparkSession, store: TsdbStore): DataFrame =
    spark.read.parquet(store.path).select(TsdbStore.PointColumns.map(col): _*)

  /** Points expected but not stored, and stored but not expected, compared
    * value by value as multisets (what `exceptAll` both ways gives, in one
    * aggregation; `exceptAll` itself over the melt's union plan fails in the
    * optimizer with INTERNAL_ERROR_ATTRIBUTE_NOT_FOUND).
    */
  def parity(expected: DataFrame, stored: DataFrame): (Long, Long) = {
    val cols = TsdbStore.PointColumns.map(col)
    val diff = expected.select(cols: _*).withColumn("w", lit(1L))
      .unionByName(stored.select(cols: _*).withColumn("w", lit(-1L)))
      .groupBy(cols: _*).agg(sum(col("w")).as("d"))
      .where(col("d") =!= 0)
      .agg(sum(when(col("d") > 0, col("d")).otherwise(0L)), sum(when(col("d") < 0, -col("d")).otherwise(0L)))
      .head()
    (Option(diff.get(0)).map(_.toString.toLong).getOrElse(0L),
      Option(diff.get(1)).map(_.toString.toLong).getOrElse(0L))
  }

  /** Checks a store against the batch transform + melt of its bridge
    * (`okReadings`, the batch reprocess of the same files).
    */
  def checkParity(rec: Recorder, what: String, okReadings: DataFrame, store: TsdbStore): Unit = {
    val spark = okReadings.sparkSession
    val r = rec.op(s"$what parity")(parity(
      TsdbStore.meltReadings(okReadings, TsdbStore.StandardMetrics), storedPoints(spark, store)))
    r.foreach { case (missing, extra) =>
      rec.check(s"$what store equals batch transform + melt", missing == 0 && extra == 0,
        s"$missing points missing, $extra unexpected")
    }
  }

  /** Files, bytes and metric/date partitions of a store directory. */
  def storeStats(store: TsdbStore): (Int, Long, Int) = {
    val files = Files.parquetFiles(new File(store.path))
    val parts = files.map(_.getParentFile.getPath).distinct.size
    (files.size, files.map(_.length).sum, parts)
  }

  def putStoreStats(rec: Recorder, store: TsdbStore): Unit = {
    val (files, bytes, parts) = storeStats(store)
    rec.put("tsdb.files_written", files.toDouble, "count")
    rec.put("tsdb.bytes_written", bytes.toDouble, "bytes")
    rec.put("tsdb.partitions", parts.toDouble, "count")
  }
}
