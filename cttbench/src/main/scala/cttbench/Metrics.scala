package cttbench

/** Names and units of everything a run reports. The untraced run prints
  * [[endToEnd]]; the traced run prints [[perLayer]]. Every workload prints
  * every name: a layer a workload does not exercise reads 0.
  */
object Metrics {

  /** The same five figures on every workload; what an "item" or an
    * "operation" is depends on the workload (see BENCHMARK.md).
    */
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "throughput_per_s" -> "1/s",
    "latency_p50_ms" -> "ms",
    "latency_p95_ms" -> "ms",
    "heap_retained_mb" -> "MB")

  val perLayer: Seq[(String, String)] = Seq(
    // The workload figures under the names the design uses for them.
    "ingest_pps" -> "1/s", "reprocess_pps" -> "1/s", "store_bytes_per_point" -> "bytes",
    "freshness_p50_s" -> "s", "freshness_p95_s" -> "s",
    "query_p50_ms" -> "ms", "query_p95_ms" -> "ms",
    "downsample_p50_ms" -> "ms", "downsample_p95_ms" -> "ms",
    "latest_p50_ms" -> "ms", "latest_p95_ms" -> "ms",
    "analyses_s" -> "s",
    "trace.overhead_ms" -> "ms",
    "iot.simulate_s" -> "s", "iot.uplinks" -> "count",
    "lorawan.transmit_s" -> "s", "lorawan.packets_per_uplink" -> "ratio",
    "mqtt.bridge_write_s" -> "s", "mqtt.bridge_files" -> "count",
    "mqtt.publish_us_p50" -> "us", "mqtt.roll_wait_s_p50" -> "s",
    "live.generator_late_s_max" -> "s", "live.backlog_files_max" -> "count",
    "stream.calls" -> "count", "stream.batches" -> "count", "stream.empty_batches" -> "count",
    "stream.query_start_s" -> "s", "stream.planning_s" -> "s", "stream.latest_offset_s" -> "s",
    "stream.add_batch_s" -> "s", "stream.wal_commit_s" -> "s", "stream.trigger_s" -> "s",
    "stream.state_rows" -> "count", "stream.state_mb" -> "MB",
    "stream.rows_dropped_by_watermark" -> "count",
    "etl.scan_s" -> "s", "etl.decode_s" -> "s", "etl.dedup_s" -> "s", "etl.enrich_s" -> "s",
    "etl.rows_in" -> "count", "etl.rows_out" -> "count", "etl.readings_per_packet" -> "ratio",
    "tsdb.melt_s" -> "s", "tsdb.put_s" -> "s", "tsdb.files_written" -> "count",
    "tsdb.bytes_written" -> "bytes", "tsdb.partitions" -> "count",
    "tsdb.discover_ms" -> "ms", "tsdb.files_per_query" -> "count",
    "tsdb.rows_scanned_per_row" -> "ratio",
    "twin.ingest_us_p50" -> "us", "twin.tick_us_p50" -> "us",
    "twin.msgs_delivered" -> "count", "twin.alarms" -> "count", "twin.false_alarms" -> "count",
    "external.sources_s" -> "s",
    "tables.t1_s" -> "s", "tables.t3_s" -> "s", "tables.t4_s" -> "s",
    "tables.t5_s" -> "s", "tables.t6_s" -> "s", "tables.spark_jobs" -> "count",
    "spark.jobs" -> "count", "spark.tasks" -> "count",
    "spark.shuffle_write_mb" -> "MB", "spark.gc_s" -> "s")

  /** The figures of the run's mode, in declaration order; missing per-layer
    * figures are layers the workload does not touch and read 0.
    */
  def select(rec: Recorder, traced: Boolean): Seq[(String, Double, String)] =
    if (traced) perLayer.map { case (n, u) => (n, rec.metrics.get(n).map(_._1).getOrElse(0.0), u) }
    else endToEnd.map { case (n, u) =>
      val v = rec.metrics.get(n).map(_._1)
      rec.check(s"metric $n measured", v.exists(x => !x.isNaN && !x.isInfinite && x > 0),
        s"value $v")
      (n, v.filter(x => !x.isNaN && !x.isInfinite).getOrElse(0.0), u)
    }

  def json(rec: Recorder, figures: Seq[(String, Double, String)]): String = {
    val ms = figures.map { case (n, v, u) =>
      val num = if (v.isNaN || v.isInfinite) "0.0" else java.lang.Double.toString(v)
      s""""$n": {"value": $num, "unit": "$u"}"""
    }.mkString(", ")
    s"""{"correct": ${rec.failed == 0}, "attempted": ${math.max(1L, rec.attempted)}, """ +
      s""""failed": ${rec.failed}, "metrics": {$ms}}"""
  }
}
