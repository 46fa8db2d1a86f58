package cttbench

import java.util.concurrent.atomic.AtomicBoolean
import scala.collection.mutable
import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.SparkSession
import repro.core.Schemas
import repro.core.Schemas.ReceivedPacket
import repro.iot.{SensorFleet, SensorSimulator}
import repro.lorawan.{OutageWindow, RadioNetwork}
import repro.mqtt.{Broker, FileBridge}
import repro.tables.Table6Monitoring
import repro.tsdb.TsdbStore
import repro.twin.{Dataport, DataportProtocol}

/** `live_ingest`: an open loop. One generator thread publishes each 5-minute
  * round of the T6 fault scenario (a dead `ctt-trd-05`, a `gw-trd-3`
  * outage) through the MQTT broker on a fixed wall-clock schedule, every
  * gateway copy included. A file bridge rolls the packets into the bridge
  * directory and a dataport subscribed to the same broker gets every copy
  * plus a clock tick and backend heartbeat per round. The client thread
  * calls `Pipeline.ingestBridge` on one checkpoint, then polls
  * `TsdbStore.latest`, until the feed is drained.
  *
  * An operation is one sampled reading, timed from when its round was due
  * to be published until `latest` shows it; an item is one packet drained
  * per second of ingest-call time.
  */
object LiveIngest {
  import DataportProtocol._

  val RoundSeconds = 300L
  /** Day 1 00:00-06:00 of the scenario is published and ingested before the
    * timed window, so the store, the dedup state and the twins start with
    * history and the JVM is warm.
    */
  val PrefillStart: Long = Schemas.EpochStart + 86400L
  val PrefillRounds = 72
  /** Rounds on the schedule: day 1 06:00 to 20:00, which holds the outage
    * (10:00-14:00) and the sensor death (18:00) with its detection.
    */
  val WindowStart: Long = PrefillStart + PrefillRounds * RoundSeconds
  val WindowRounds = 168
  /** Messages per bridge file. */
  val RollEvery = 100
  val Setups = 3

  /** The scenario's packets in publication order, as Table6Monitoring
    * builds them.
    */
  def scenario(spark: SparkSession, seed: Long): Array[ReceivedPacket] = {
    val outages = Seq(OutageWindow(Table6Monitoring.OutGateway,
      Table6Monitoring.outageStart, Table6Monitoring.outageEnd))
    val dead = Table6Monitoring.DeadDevice
    val death = Table6Monitoring.deathTime
    val ups = SensorSimulator.uplinks(spark, Table6Monitoring.ScenarioSf, seed)
      .filter(u => !(u.deviceId == dead && u.tsEpoch >= death))
    RadioNetwork.transmit(spark, ups, RadioNetwork.gateways, outages, seed, seed)
      .filter(p => p.tsEpoch >= PrefillStart && p.tsEpoch < WindowStart + WindowRounds * RoundSeconds)
      .collect().sortBy(p => (p.tsEpoch, p.deviceId, p.gatewayId))
  }

  def json(p: ReceivedPacket): String =
    s"""{"deviceId":"${p.deviceId}","gatewayId":"${p.gatewayId}","frameCounter":${p.frameCounter},""" +
      s""""tsEpoch":${p.tsEpoch},"rssi":${p.rssi},"snr":${p.snr},"payloadB64":"${p.payloadB64}",""" +
      s""""batteryPct":${p.batteryPct},"intervalMin":${p.intervalMin}}"""

  /** What the generator thread observed. */
  final class GenLog(n: Int) {
    val pubStart = new Array[Long](n)
    val pubEnd = new Array[Long](n)
    val late = mutable.ArrayBuffer.empty[Double]
    val twinIngestNs = mutable.ArrayBuffer.empty[Long]
    val twinTickNs = mutable.ArrayBuffer.empty[Long]
    @volatile var error: Throwable = _
  }

  def run(spark: SparkSession, a: Args, rec: Recorder, probes: Option[Probes]): Unit = {
    val root = a.workRoot
    var packets: Array[ReceivedPacket] = Array.empty
    val setupS = (1 to Setups).map { _ =>
      val (s, ps) = Stats.timed(Trace.span("iot.simulate+lorawan.transmit")(scenario(spark, a.seed)))
      packets = ps
      s
    }
    rec.put("setup_s", Stats.median(setupS), "s")
    val rounds = packets.groupBy(p => ((p.tsEpoch - PrefillStart) / RoundSeconds).toInt)
    val prefilled = (0 until PrefillRounds).map(k => rounds.get(k).map(_.length).getOrElse(0)).sum
    val timedPackets = packets.length - prefilled
    val periodNs = (a.seconds * 1e9 / WindowRounds).toLong
    rec.note(f"live_ingest: $prefilled packets prefilled, $timedPackets in $WindowRounds rounds, offered " +
      f"${WindowRounds / a.seconds}%.1f rounds/s = ${timedPackets / a.seconds}%.0f packets/s, " +
      f"setups ${setupS.map(s => f"$s%.2f").mkString(" ")} s")

    val bridgeDir = Files.fresh(root, "bridge")
    val chk = Files.fresh(root, "chk")
    val store = TsdbStore(Files.fresh(root, "tsdb").getPath)
    val broker = new Broker
    val bridge = new FileBridge(broker, "ttn/up/#", bridgeDir, RollEvery)
    val dp = new Dataport(SensorFleet.nodes(a.seed), RadioNetwork.gateways)
    val log = new GenLog(packets.length)
    val mapper = new ObjectMapper()
    broker.subscribe("ttn/up/#") { (_, payload) =>
      val j = mapper.readTree(payload)
      val meta = PacketMeta(j.get("deviceId").asText, j.get("gatewayId").asText,
        j.get("frameCounter").asLong, j.get("tsEpoch").asLong, j.get("rssi").asDouble,
        j.get("batteryPct").asDouble, j.get("intervalMin").asInt)
      val t0 = System.nanoTime(); dp.ingest(meta); log.twinIngestNs += System.nanoTime() - t0
    }
    broker.subscribe("ctt/clock") { (_, payload) =>
      val now = payload.toLong
      dp.heartbeat(now)
      val t0 = System.nanoTime(); dp.tick(now); log.twinTickNs += System.nanoTime() - t0
    }

    var idx = 0
    def publishRound(k: Int): Unit = {
      broker.publish("ctt/clock", (PrefillStart + k * RoundSeconds).toString)
      rounds.getOrElse(k, Array.empty).foreach { p =>
        log.pubStart(idx) = System.nanoTime()
        broker.publish(s"ttn/up/${p.deviceId}/${p.gatewayId}", json(p))
        log.pubEnd(idx) = System.nanoTime()
        idx += 1
      }
    }

    // Prefill, untimed: the morning's rounds go out at once and one ingest
    // call and poll take them in.
    (0 until PrefillRounds).foreach(publishRound)
    rec.op("prefill ingest call")(Feed.ingest(spark, bridgeDir, chk, store, a.seed))
    rec.op("prefill latest poll")(store.latest(spark, "air.co2").collect())
    val prefillFiles = Feed.bridgeFiles(bridgeDir).size

    // The generator: window round k is due at start + k * period, whatever
    // the client is doing; lateness is how far behind that schedule it ran.
    val startNs = System.nanoTime() + 200000000L
    val genDone = new AtomicBoolean(false)
    val generator = new Thread(() => {
      try {
        for (k <- 0 until WindowRounds) {
          val due = startNs + k * periodNs
          var now = System.nanoTime()
          while (now < due) { Thread.sleep(math.max(0L, (due - now) / 1000000L), 0); now = System.nanoTime() }
          log.late += (now - due) / 1e9
          publishRound(PrefillRounds + k)
        }
        bridge.close()
      } catch { case e: Throwable => log.error = e }
      finally genDone.set(true)
    }, "cttbench-generator")
    generator.setDaemon(true)

    // The client: ingest, then poll latest, until a call that began after
    // the feed ended has been polled.
    val polls = mutable.ArrayBuffer.empty[(Long, Map[String, Long])] // (poll end ns, device -> latest ts)
    val calls = mutable.ArrayBuffer.empty[(Double, Boolean)]
    var backlogMax = 0
    var filesAtLastCall = prefillFiles
    var finalCallDone = false
    generator.start()
    val deadline = Stats.nowS + a.seconds + 120
    var i = 0
    while (!finalCallDone && Stats.nowS < deadline) {
      val last = genDone.get()
      val files = Feed.bridgeFiles(bridgeDir).size
      backlogMax = math.max(backlogMax, files - filesAtLastCall)
      filesAtLastCall = files
      val traced = a.trace && i % 2 == 1
      Trace.enabled = traced
      rec.op(s"ingest call $i")(Feed.ingest(spark, bridgeDir, chk, store, a.seed))
        .foreach(s => calls += ((s, traced)))
      rec.op(s"latest poll $i")(Trace.span("tsdb.latest")(store.latest(spark, "air.co2").collect()))
          .foreach { rs =>
            polls += ((System.nanoTime(), rs.map(r => r.getAs[String]("deviceId") -> r.getAs[Long]("tsEpoch")).toMap))
          }
      Trace.enabled = false
      finalCallDone = last
      i += 1
    }
    Trace.enabled = a.trace
    generator.join(30000)
    rec.check("generator finished", genDone.get() && log.error == null, String.valueOf(log.error))
    rec.check("client drained the feed", finalCallDone, "deadline passed")

    // Freshness of every OK reading of the window: from its round's due time to the
    // end of the first poll that shows it (or a later reading of its device).
    val ok = Feed.reprocess(spark, bridgeDir, a.seed).cache()
    val readings = rec.op("reference readings")(ok
      .select("deviceId", "tsEpoch").collect().map(r => (r.getString(0), r.getLong(1))))
      .getOrElse(Array.empty)
    val sampled = readings.filter(_._2 >= WindowStart)
    val fresh = sampled.flatMap { case (d, ts) =>
      val due = startNs + (ts - WindowStart) / RoundSeconds * periodNs
      polls.find(_._2.get(d).exists(_ >= ts)).map(p => (p._1 - due) / 1e9)
    }
    rec.check("every sampled reading found", sampled.nonEmpty && fresh.length == sampled.length,
      s"${fresh.length} of ${sampled.length} found")
    if (fresh.nonEmpty) {
      rec.put("freshness_p50_s", Stats.median(fresh.toSeq), "s")
      rec.put("freshness_p95_s", Stats.percentile(fresh.toSeq, 95), "s")
      rec.put("latency_p50_ms", Stats.median(fresh.toSeq) * 1000, "ms")
      rec.put("latency_p95_ms", Stats.percentile(fresh.toSeq, 95) * 1000, "ms")
    }
    val busy = calls.map(_._1).sum
    rec.put("throughput_per_s", timedPackets / busy, "1/s")
    rec.put("ingest_pps", timedPackets / busy, "1/s")
    rec.note(f"live_ingest: ${calls.size} calls (${calls.map(c => f"${c._1}%.1f").mkString(" ")} s), " +
      f"${polls.size} polls, ${fresh.length} readings sampled")

    val n = packets.length
    val rollWait = (prefilled until n).map { m =>
      val closer = math.min(n - 1, (m / RollEvery + 1) * RollEvery - 1)
      (log.pubEnd(closer) - log.pubStart(m)) / 1e9
    }
    if (n > prefilled) {
      rec.put("mqtt.publish_us_p50", Stats.median((prefilled until n).map(m => (log.pubEnd(m) - log.pubStart(m)) / 1e3)), "us")
      rec.put("mqtt.roll_wait_s_p50", Stats.median(rollWait), "s")
    }
    rec.put("mqtt.bridge_files", Feed.bridgeFiles(bridgeDir).size.toDouble, "count")
    if (log.late.nonEmpty) rec.put("live.generator_late_s_max", log.late.max, "s")
    rec.put("live.backlog_files_max", backlogMax.toDouble, "count")
    if (log.twinIngestNs.nonEmpty) rec.put("twin.ingest_us_p50", Stats.median(log.twinIngestNs.map(_ / 1e3).toSeq), "us")
    if (log.twinTickNs.nonEmpty) rec.put("twin.tick_us_p50", Stats.median(log.twinTickNs.map(_ / 1e3).toSeq), "us")
    rec.put("twin.msgs_delivered", dp.system.delivered.toDouble, "count")
    rec.put("twin.alarms", dp.alarms.size.toDouble, "count")
    rec.put("iot.uplinks", packets.map(p => (p.deviceId, p.frameCounter)).distinct.length.toDouble, "count")
    Feed.putStoreStats(rec, store)

    // Outside the timed interval: store parity and the twins' verdicts.
    Feed.checkParity(rec, "live_ingest", ok, store)
    rec.op("T6 reference")(Table6Monitoring.compute(spark, a.seed)).foreach { t6 =>
      val got = verdicts(dp)
      val want = (t6.sensorFailureDetectMin, t6.sensorFailureClass, t6.gatewayOutageDetectMin,
        t6.exclusiveSensorClass, t6.recoveredAfterOutage)
      rec.check("twins detect and classify as Table6Monitoring", got == want, s"got $got, T6 $want")
    }

    probes.foreach { p =>
      p.stream.awaitTerminated(calls.size + 1)
      rec.put("stream.calls", calls.size + 1.0, "count")
      p.streamMetrics(Feed.callStartsMs, rec)
      val tr = calls.filter(_._2).map(_._1).toSeq
      val un = calls.filter(!_._2).map(_._1).toSeq
      if (tr.nonEmpty && un.nonEmpty) rec.put("trace.overhead_ms", (Stats.median(tr) - Stats.median(un)) * 1000, "ms")
      rec.put("tsdb.discover_ms", Reads.discoverMs(spark, store), "ms")
    }
  }

  /** Detection latencies (min), classifications and recovery, derived from
    * the dataport's alarms the way Table6Monitoring derives them.
    */
  def verdicts(dp: Dataport): (Option[Double], Option[String], Option[Double], Option[String], Boolean) = {
    import Table6Monitoring._
    val alarms = dp.alarms
    val classified = dp.classifiedAlarms
    val deadDown = alarms.collectFirst { case s: SensorDown if s.deviceId == DeadDevice && s.tsEpoch > deathTime => s }
    val deadClass = classified.find(c => c.deviceId == DeadDevice && c.tsEpoch > deathTime).map(_.cause)
    val gwDown = alarms.collectFirst { case g: GatewayDown if g.gatewayId == OutGateway && g.tsEpoch > outageStart => g }
    val exclClass = classified.find(c => c.deviceId == ExclusiveDevice &&
      c.tsEpoch >= outageStart && c.tsEpoch <= outageEnd + 3600).map(_.cause)
    val recovered = alarms.exists {
      case r: SensorRecovered => r.deviceId == ExclusiveDevice && r.tsEpoch >= outageEnd
      case _ => false
    }
    (deadDown.map(s => (s.tsEpoch - deathTime) / 60.0), deadClass,
      gwDown.map(g => (g.tsEpoch - outageStart) / 60.0), exclClass, recovered)
  }
}
