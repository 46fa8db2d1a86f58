package cttbench

/** Human-readable output of a run: every recorded figure with its unit, and
  * the per-layer table in the layout of the ROADMAP's measured baseline,
  * with the baseline's own numbers beside the measured ones.
  */
object Report {

  /** The ROADMAP probe (SF=0.1, 64 shuffle partitions, seed 7). */
  private val probe: Map[String, String] = Map(
    "simulate" -> "1.4 s; 135 466 uplinks",
    "radio" -> "~0 s extra; 267 102 packets (2x)",
    "bridge" -> "3.5 s total; 12 files",
    "scan" -> "1.2 / 1.3 / 1.7 s",
    "transform" -> "4.2 s; 133 933 readings",
    "melt" -> "5.8 s (8-way unionByName)",
    "put" -> "24.5 s; 336 files",
    "stream" -> "73.7 s; addBatch 67 s; empty batch 5.1 s; 4 368 files",
    "reads" -> "4.9 / 4.4 / 4.4 s",
    "state" -> "133 933 rows, 50 MB")

  def layerTable(a: Args, rec: Recorder): String = {
    def v(n: String): Double = rec.metrics.get(n).map(_._1).getOrElse(0.0)
    def has(n: String) = rec.metrics.contains(n)
    def s(x: Double) = f"$x%.2f s"
    val rows = Seq.newBuilder[(String, String, String, String)]
    if (has("iot.simulate_s")) {
      rows += (("simulate uplinks", s(v("iot.simulate_s")), f"${v("iot.uplinks")}%.0f uplinks", probe("simulate")))
      rows += (("+ radio", s(v("lorawan.transmit_s")) + " extra",
        f"${v("lorawan.packets_per_uplink")}%.2f packets per uplink", probe("radio")))
      rows += (("+ bridge JSON write", s(v("mqtt.bridge_write_s")) + " total",
        f"${v("mqtt.bridge_files")}%.0f files", probe("bridge")))
    }
    if (has("ladder.etl.scan")) {
      rows += (("JSON scan / + decode UDF / + dedup",
        f"${v("ladder.etl.scan")}%.2f / ${v("ladder.etl.decode")}%.2f / ${v("ladder.etl.dedup")}%.2f s",
        "cumulative prefixes", probe("scan")))
      rows += (("batch transform, OK rows", s(v("ladder.etl.enrich")),
        f"${v("etl.rows_out")}%.0f readings", probe("transform")))
      rows += (("+ melt (as shipped)", s(v("ladder.tsdb.melt")), "", probe("melt")))
      rows += (("batch transform + TsdbStore.put", s(v("ladder.tsdb.put")), "", probe("put")))
    }
    val calls = math.max(1.0, v("stream.calls"))
    if (has("stream.calls")) rows += (("stream, AvailableNow, as shipped",
      if (a.workload == "bulk_ingest") s(v("latency_p50_ms") / 1000) + " per pass"
      else s(v("stream.trigger_s") / calls) + " per call",
      f"addBatch ${v("stream.add_batch_s") / calls}%.2f s per call (${v("stream.calls")}%.0f calls); " +
        f"${v("stream.empty_batches")}%.0f empty batches; ${v("tsdb.files_written")}%.0f files",
      probe("stream")))
    if (has("query_p50_ms")) rows += (("TSDB query / latest / downsample (p50)",
      f"${v("query_p50_ms") / 1000}%.2f / ${v("latest_p50_ms") / 1000}%.2f / ${v("downsample_p50_ms") / 1000}%.2f s",
      f"${v("tsdb.files_per_query")}%.0f files per query", probe("reads")))
    if (has("stream.state_rows")) rows += (("dedup state after ingest",
      f"${v("stream.state_rows")}%.0f rows, ${v("stream.state_mb")}%.1f MB", "", probe("state")))
    val rs = rows.result()
    if (rs.isEmpty) return ""
    val head = ("Layer", "Time", "Note", "ROADMAP probe (SF=0.1, 64 partitions)")
    val all = head +: rs
    val w = Seq(all.map(_._1.length).max, all.map(_._2.length).max, all.map(_._3.length).max)
    val lines = all.map { case (l, t, n, p) =>
      s"| ${l.padTo(w(0), ' ')} | ${t.padTo(w(1), ' ')} | ${n.padTo(w(2), ' ')} | $p |" }
    val shares =
      if (!has("ladder.tsdb.put")) ""
      else {
        val put = v("ladder.tsdb.put")
        f"\nsink (melt + put) ${100 * (put - v("ladder.etl.enrich")) / put}%.0f%% and decode " +
          f"${100 * v("etl.decode_s") / put}%.0f%% of batch transform + put; stream addBatch " +
          f"${100 * v("stream.add_batch_s") / math.max(1e-9, v("stream.trigger_s"))}%.0f%% of trigger time" +
          f" (probe: sink ~83%% of put, decode ~0.4%%, addBatch 67 of 74 s)\n"
      }
    s"Per-layer table, ${a.workload}, seed ${a.seed}, ${Session.ShufflePartitions} shuffle partitions\n" +
      lines.mkString("\n") + "\n" + shares
  }

  def render(a: Args, rec: Recorder, table: String): String = {
    val sb = new StringBuilder
    sb ++= s"== cttbench ${a.workload} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0}\n"
    rec.metrics.toSeq.filterNot(_._1.startsWith("ladder.")).foreach { case (n, (v, u)) =>
      sb ++= f"  $n%-34s $v%16.4f $u\n" }
    sb ++= s"  ops_attempted ${rec.attempted}\n  ops_failed ${rec.failed}\n"
    rec.failureMessages.foreach(m => sb ++= s"  FAILED: $m\n")
    rec.timings.filter(_._2 >= 0.5).foreach { case (w, s) => sb ++= f"  took $s%7.2f s  $w\n" }
    sb ++= table
    sb.toString
  }
}
