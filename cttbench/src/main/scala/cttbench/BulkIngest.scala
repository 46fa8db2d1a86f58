package cttbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, timestamp_seconds, udf}
import repro.core.{Pipeline, Schemas}
import repro.lorawan.PacketCodec
import repro.tsdb.TsdbStore

/** `bulk_ingest`: drain a multi-week bridge directory into an empty store in
  * one `Pipeline.ingestBridge` AvailableNow pass, then reprocess the same
  * files with the batch transform. The write path does nearly all the work.
  * Afterwards, outside the timed interval, a dashboard client reads the
  * store back, so a layout change shows on the read side as well.
  *
  * An operation is one ingest pass; an item is one bridge packet.
  */
object BulkIngest {
  val Days = 10
  val Setups = 3
  val ReprocessPasses = 3
  val ReadOps = 8

  def run(spark: SparkSession, a: Args, rec: Recorder, probes: Option[Probes]): Unit = {
    val days = math.max(2, math.round(Days * a.scale).toInt)
    val root = a.workRoot

    // Set-up: simulate, transmit and write the bridge, several times.
    var packets = 0L
    val setupS = (1 to Setups).map { i =>
      // The traced run times the simulate and radio prefixes on the last,
      // warm, set-up only.
      Trace.enabled = a.trace && i == Setups
      val dir = Files.fresh(root, s"bridge-$i")
      val (s, n) = Stats.timed(Feed.writeBridge(spark, days, a.seed, dir, rec))
      packets = n
      if (i < Setups) Files.deleteRecursively(dir)
      s
    }
    val bridge = new java.io.File(root, s"bridge-$Setups")
    rec.put("setup_s", Stats.median(setupS), "s")
    rec.note(f"bulk_ingest: $days days, $packets packets, setups ${setupS.map(s => f"$s%.2f").mkString(" ")} s")

    // Warm-up, untimed: draining a 2-day bridge once loads the classes and
    // generates the code of the ingest path, which a first pass would
    // otherwise pay with a large and variable delay.
    Trace.enabled = false
    rec.op("warm-up ingest") {
      val wb = Files.fresh(root, "warm-bridge")
      Pipeline.writeBridge(spark, Feed.sfOfDays(2), a.seed, wb.getPath)
      Feed.ingest(spark, wb, Files.fresh(root, "warm-chk"),
        TsdbStore(Files.fresh(root, "warm-tsdb").getPath), a.seed)
      Seq("warm-bridge", "warm-chk", "warm-tsdb").foreach(d => Files.deleteRecursively(new java.io.File(root, d)))
    }

    // Timed: as many whole ingest passes into empty stores as fit in the
    // run's seconds, at least one. The traced run adds one traced pass; its
    // difference from the untraced pass is the tracing overhead.
    val start = Stats.nowS
    val passes = scala.collection.mutable.ArrayBuffer.empty[Double]
    var last: TsdbStore = null
    var i = 0
    def fits = passes.isEmpty || Stats.nowS - start + passes.last <= a.seconds
    while (i < 3 && fits) {
      val store = TsdbStore(Files.fresh(root, s"tsdb-$i").getPath)
      val chk = Files.fresh(root, s"chk-$i")
      rec.op(s"ingest pass $i")(Feed.ingest(spark, bridge, chk, store, a.seed)).foreach(passes += _)
      if (last != null) Files.deleteRecursively(new java.io.File(last.path))
      Files.deleteRecursively(chk)
      last = store
      i += 1
    }
    if (passes.isEmpty) throw new IllegalStateException("no ingest pass succeeded")
    val lat = passes.toSeq
    rec.put("latency_p50_ms", Stats.median(lat) * 1000, "ms")
    rec.put("latency_p95_ms", Stats.tail(lat) * 1000, "ms")
    rec.put("throughput_per_s", packets / Stats.median(lat), "1/s")
    rec.put("ingest_pps", packets / Stats.median(lat), "1/s")
    if (a.trace) {
      Trace.enabled = true
      val chk = Files.fresh(root, "chk-traced")
      val store = TsdbStore(Files.fresh(root, "tsdb-traced").getPath)
      rec.op("traced ingest pass")(Feed.ingest(spark, bridge, chk, store, a.seed)).foreach { s =>
        rec.put("trace.overhead_ms", (s - Stats.median(lat)) * 1000, "ms")
      }
      Files.deleteRecursively(new java.io.File(store.path)); Files.deleteRecursively(chk)
    }
    rec.note(f"bulk_ingest: ingest passes ${passes.map(p => f"$p%.2f").mkString(" ")} s")

    // Timed: batch reprocess of the same files down to OK readings.
    val reproS = (1 to ReprocessPasses).flatMap { j =>
      rec.op(s"reprocess pass $j")(Stats.timed(Trace.span("core.batch")(
        Feed.reprocess(spark, bridge, a.seed).count()))).map { case (s, n) =>
        rec.put("etl.rows_in", packets.toDouble, "count")
        rec.put("etl.rows_out", n.toDouble, "count")
        rec.put("etl.readings_per_packet", n.toDouble / packets, "ratio")
        s
      }
    }
    if (reproS.nonEmpty) rec.put("reprocess_pps", packets / Stats.median(reproS), "1/s")

    // Outside the timed interval: dashboard reads of the store the last
    // pass wrote, store statistics and value parity.
    val store = last
    val ok = Feed.reprocess(spark, bridge, a.seed).cache()
    Reads.run(spark, store, ok, days, a.seed, ReadOps, rec, probes)
    val (_, bytes, _) = Feed.storeStats(store)
    Feed.putStoreStats(rec, store)
    Feed.checkParity(rec, "bulk_ingest", ok, store)
    rec.op("store size") {
      val points = Feed.storedPoints(spark, store).count()
      rec.put("store_bytes_per_point", bytes.toDouble / points, "bytes")
    }

    probes.foreach { p =>
      val calls = Feed.callStartsMs.size
      p.stream.awaitTerminated(calls)
      rec.put("stream.calls", calls.toDouble, "count")
      p.streamMetrics(Feed.callStartsMs, rec)
      ok.unpersist(blocking = true) // the ladder must recompute, not read the cache
      ladder(spark, a, rec, bridge)
    }
  }

  /** The prefix ladder of the traced run: scan, +decode, +dedup, the full
    * transform, +melt and +put, each forced with a no-op write. A step's
    * self time is its prefix time minus the previous prefix's.
    */
  private def ladder(spark: SparkSession, a: Args, rec: Recorder,
                     bridge: java.io.File): Unit = rec.op("prefix ladder") {
    def force(df: org.apache.spark.sql.DataFrame): Unit =
      df.write.format("noop").mode("overwrite").save()
    val decode = udf((p: String) => PacketCodec.decode(p))
    val scan = spark.read.schema(Schemas.packetSchema).json(bridge.getPath)
    val decoded = scan.withColumn("ts", timestamp_seconds(col("tsEpoch")))
      .withColumn("m", decode(col("payloadB64")))
    val deduped = decoded.withWatermark("ts", "1 hour").dropDuplicates("deviceId", "frameCounter")
    val ok = Feed.reprocess(spark, bridge, a.seed)
    val melted = TsdbStore.meltReadings(ok, TsdbStore.StandardMetrics)
    val steps = Seq[(String, () => Unit)](
      "etl.scan" -> (() => force(scan)),
      "etl.decode" -> (() => force(decoded)),
      "etl.dedup" -> (() => force(deduped)),
      "etl.enrich" -> (() => force(ok)),
      "tsdb.melt" -> (() => force(melted)),
      "tsdb.put" -> (() => TsdbStore(Files.fresh(a.workRoot, "ladder-tsdb").getPath).put(melted)))
    steps.foreach { case (_, f) => f() } // warm every plan once, so step order does not matter
    val cumulative = steps.map { case (n, f) => n -> Stats.timed(Trace.span(s"ladder.$n")(f()))._1 }
    val selfS = cumulative.zip(0.0 +: cumulative.map(_._2)).map { case ((n, c), prev) => n -> (c - prev) }
    selfS.foreach { case (n, s) => rec.put(s"${n}_s", s, "s") }
    cumulative.foreach { case (n, c) => rec.put(s"ladder.$n", c, "s") }
    rec.note("prefix ladder (cumulative s): " +
      cumulative.map { case (n, c) => f"$n=$c%.2f" }.mkString(" "))
  }
}
