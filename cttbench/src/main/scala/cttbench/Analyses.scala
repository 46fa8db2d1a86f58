package cttbench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core.Pipeline
import repro.external._
import repro.iot.{Cities, SensorFleet}
import repro.tables._

/** `analyses`: repeated passes over the T1, T3, T4, T5 and T6 harnesses at
  * one (sf, seed) after set-up has filled `Pipeline.okReadingsCached`. The
  * core analytics, the external sources and the T6 dataport replay do
  * their work here; ingest and the TSDB do none.
  *
  * An operation is one pass; an item is one cached reading analysed.
  */
object Analyses {
  val Days = 7

  final case class Pass(t1: Table1Integration.Result, t3: Table3Battery.Result,
                        t4: Table4Co2Traffic.Result, t5: Table5Calibration.Result,
                        t6: Table6Monitoring.Result) {
    def rendered: String = Seq(t1.rendered, t3.rendered, t4.rendered, t5.rendered, t6.rendered)
      .mkString("\n")
  }

  def pass(spark: SparkSession, sf: Double, seed: Long, rec: Recorder): Pass = {
    def table[A](name: String)(f: => A): A = {
      val (s, r) = Stats.timed(Trace.span(s"tables.$name")(f))
      if (Trace.enabled) rec.put(s"tables.${name}_s", s, "s")
      r
    }
    Pass(table("t1")(Table1Integration.compute(spark, sf, seed)),
      table("t3")(Table3Battery.compute(spark, sf, seed)),
      table("t4")(Table4Co2Traffic.compute(spark, sf, seed)),
      table("t5")(Table5Calibration.compute(spark, sf, seed)),
      table("t6")(Table6Monitoring.compute(spark, seed)))
  }

  /** The bands the `bench` suites assert on each harness, less three that
    * are calibrated on the suites' seed and scale (seed 7, 42 days) and fail
    * on other seeds at this workload's 7 days, with no defect behind them:
    * T1's surface-column offset < 30 ppm (seeds 15 and 22 of 1-40), T5's
    * "at most 3 sensors flagged as decaying" (seeds 18 and 21) and T6's
    * "at most 4 false alarms" (12 of 40 seeds; reported as
    * `twin.false_alarms`).
    */
  def bands(p: Pass): Seq[(String, Boolean)] = {
    val t1 = p.t1.rows.map(r => r.sourceType -> r.statValue).toMap
    val t4 = p.t4.correlations.map(c => c.pollutant -> c).toMap
    val jam = p.t4.factors.find(_.factor == "jamFactor").map(f => math.abs(f.corrWithCo2))
    val night = p.t3.byHour.filter(h => !h.sunSincePrev && (h.hourOfDay <= 5 || h.hourOfDay >= 22))
    val midday = p.t3.byHour.filter(h => h.sunSincePrev && h.hourOfDay >= 10 && h.hourOfDay <= 14)
    def mean(xs: Seq[Double]) = xs.sum / xs.size
    Seq(
      "T1 seven sources" -> (p.t1.rows.size == 7 && p.t1.rows.forall(_.rowsIngested > 0)),
      "T1 calibration R2 > 0.6" -> (t1("Official air quality") > 0.6),
      "T1 corr(no2, jam) > 0.5" -> (t1("Traffic data") > 0.5),
      "T1 corr(counts, jam) > 0.6" -> (t1("Municipal traffic counts") > 0.6),
      "T1 city model covered" -> (t1("3D city models") == 1.0),
      "T1 national estimate in 100..5000" -> (t1("National statistics") > 100 && t1("National statistics") < 5000),
      "T1 >= 8 sensors classified" -> (t1("Other municipal data") >= 8),
      "T3 14 nodes, rates ordered" -> (p.t3.nodes.size == 14 && p.t3.nodes.forall(n =>
        n.nightRatePctPerH < 0 && n.sunRatePctPerH > n.nightRatePctPerH &&
          n.daysToEmpty.forall(d => d > 5 && d < 200))),
      "T3 night drains, midday sun charges more" -> (night.nonEmpty && night.forall(_.meanDeltaPct < 0) &&
        midday.nonEmpty && mean(midday.map(_.meanDeltaPct)) > mean(night.map(_.meanDeltaPct))),
      "T3 no sun at 01h" -> !p.t3.byHour.exists(h => h.sunSincePrev && h.hourOfDay == 1),
      "T4 co2 uncorrelated with jam" -> (t4("co2Ppm").verdict == "no apparent correlation"),
      "T4 no2 and pm10 correlated" -> (t4("no2Ugm3").corrWithJam > 0.5 && t4("pm10Ugm3").corrWithJam > 0.3 &&
        math.abs(t4("co2Ppm").corrWithJam) < t4("no2Ugm3").corrWithJam - 0.2),
      "T4 no lag links co2 and jam" -> p.t4.lags.forall(l => math.abs(l.corrCo2Jam) < 0.4),
      "T4 peak hours" -> (p.t4.co2PeakHour >= 2 && p.t4.co2PeakHour <= 8 &&
        ((p.t4.jamPeakHour >= 7 && p.t4.jamPeakHour <= 9) || (p.t4.jamPeakHour >= 15 && p.t4.jamPeakHour <= 18))),
      "T4 a non-traffic factor beats jam" -> jam.exists(j =>
        p.t4.factors.filter(_.factor != "jamFactor").map(f => math.abs(f.corrWithCo2)).max > j),
      "T5 calibration" -> (p.t5.fitR2 > 0.7 && p.t5.rmseAfter < p.t5.rmseBefore &&
        math.abs(p.t5.biasAfter) < math.abs(p.t5.biasBefore) + 1e-6 && math.abs(p.t5.biasAfter) < 1.0),
      "T5 grounding" -> (p.t5.trendCorrs.size == 12 && p.t5.trendCorrs.count(_._2 > 0.7) >= 9),
      "T5 decaying sensor found" -> p.t5.decayingDetected.contains(SensorFleet.DecayingDeviceId),
      "T6 detection" -> (p.t6.packetsFed > 10000 &&
        p.t6.sensorFailureDetectMin.exists(l => l >= 10 && l <= 40) &&
        p.t6.sensorFailureClass.contains("sensor-failure") &&
        p.t6.gatewayOutageDetectMin.exists(l => l >= 30 && l <= 60)),
      "T6 classification and recovery" -> (p.t6.exclusiveSensorClass.contains("gateway-outage") &&
        p.t6.recoveredAfterOutage && p.t6.frameGapsObserved > 0 &&
        p.t6.watchdogHealthyAtEnd && p.t6.messagesDispatched > p.t6.packetsFed))
  }

  def run(spark: SparkSession, a: Args, rec: Recorder, probes: Option[Probes]): Unit = {
    val days = math.max(2, math.round(Days * a.scale).toInt)
    val sf = Feed.sfOfDays(days)
    // Set-up: the memo holds one cached DataFrame per (sf, seed), so it is
    // filled once per run.
    val (setupS, readings) = Stats.timed(Trace.span("core.okReadingsCached")(
      Pipeline.okReadingsCached(spark, sf, a.seed).count()))
    rec.put("setup_s", setupS, "s")

    // Timed: as many whole passes as fit in the run's seconds, at least one.
    // The first pass pays the JVM's class loading and code generation, as a
    // one-shot analysis job does; warming up takes about three passes, more
    // than the time budget allows. The traced run makes three passes: the
    // third, traced, against the second gives the tracing overhead.
    val passes = mutable.ArrayBuffer.empty[(Double, Pass)]
    val start = Stats.nowS
    var i = 0
    def more = passes.isEmpty || (a.trace && passes.size < 3) ||
      Stats.nowS - start + passes.last._1 <= a.seconds
    while (more && i < 8) {
      val traced = a.trace && i == 2
      Trace.enabled = traced
      val jobs0 = probes.map(_.engine.jobs.get).getOrElse(0L)
      val r = rec.op(s"analyses pass $i")(Stats.timed(pass(spark, sf, a.seed, rec)))
      r.foreach { case (s, p) =>
        passes += ((s, p))
        if (traced) probes.foreach(pr => rec.put("tables.spark_jobs", (pr.engine.jobs.get - jobs0).toDouble, "count"))
      }
      Trace.enabled = false
      i = if (r.isEmpty) 8 else i + 1 // a failing pass would fail again
    }
    Trace.enabled = a.trace
    val lat = (if (a.trace) passes.take(1) else passes).map(_._1).toSeq
    if (lat.nonEmpty) {
      rec.put("latency_p50_ms", Stats.median(lat) * 1000, "ms")
      rec.put("latency_p95_ms", Stats.tail(lat) * 1000, "ms")
      rec.put("analyses_s", Stats.median(lat), "s")
      rec.put("throughput_per_s", readings / Stats.median(lat), "1/s")
    }
    if (a.trace && passes.size >= 3)
      rec.put("trace.overhead_ms", (passes(2)._1 - passes(1)._1) * 1000, "ms")
    rec.note(f"analyses: $days days, $readings readings, setup $setupS%.2f s, passes " +
      passes.map(p => f"${p._1}%.2f").mkString(" ") + " s")

    // Outside the timed interval: bands of the first pass, identity of all.
    passes.headOption.foreach { case (_, first) =>
      bands(first).foreach { case (name, ok) => rec.check(s"band $name", ok, first.rendered) }
      passes.drop(1).foreach { case (_, p) =>
        rec.check("pass identical to the first", p.rendered == first.rendered, p.rendered)
      }
    }

    probes.foreach { _ =>
      rec.op("external sources") {
        val (s, _) = Stats.timed(Trace.span("external.sources") {
          NiluStations.observations(spark, sf, a.seed).count()
          Oco2Satellite.soundings(spark, sf, a.seed).count()
          HereTraffic.jamFactors(spark, sf, a.seed).count()
          TrafficCounts.counts(spark, sf, a.seed).count()
          CityModel.buildings(spark, Cities.Vejle, seed = a.seed).count()
          NationalStats.nationalInventory(spark).count()
          MunicipalGis.landUseGrid(spark, Cities.Trondheim, seed = a.seed).count()
        })
        rec.put("external.sources_s", s, "s")
      }
      rec.put("twin.msgs_delivered", passes.head._2.t6.messagesDispatched.toDouble, "count")
      rec.put("twin.false_alarms", passes.head._2.t6.falseSensorAlarms.toDouble, "count")
      rec.put("etl.rows_out", readings.toDouble, "count")
    }
  }
}
