package cttbench

import java.io.File
import java.nio.file.Files.createTempDirectory
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.tsdb.TsdbStore

/** The benchmark checked on itself at a tiny scale: every workload runs and
  * reports every named figure with its unit, and the parity check catches
  * a store that lost one point.
  */
class BenchSpec extends AnyFunSuite with BeforeAndAfterAll {
  private lazy val root: File = createTempDirectory("cttbench-test").toFile
  private lazy val spark: SparkSession = Session.build(root)

  override def afterAll(): Unit = {
    spark.stop()
    Files.deleteRecursively(root)
  }

  /** Two simulated days for the ingest workloads. The analyses keep their
    * 7 days: Table1Integration fails below that (its traffic-count campaign
    * lasts a week).
    */
  private def args(workload: String, trace: Boolean): Args =
    Args(workload, seed = 3L, seconds = 1.0, trace = trace,
      scale = if (workload == "analyses") 1.0 else 0.15,
      workRoot = Files.fresh(root, s"$workload-$trace"))

  for (workload <- Main.Workloads.keys.toSeq.sorted; trace <- Seq(false, true)) {
    test(s"$workload (trace=$trace) reports every figure with its unit") {
      val a = args(workload, trace)
      val rec = new Recorder
      val probes = if (trace) Some(new Probes(spark)) else None
      Trace.enabled = trace
      try Main.Workloads(workload)(spark, a, rec, probes)
      finally Trace.enabled = false
      rec.put("heap_retained_mb", Stats.heapRetainedMb(), "MB")
      probes.foreach(_.engineMetrics(rec))
      val figures = Metrics.select(rec, trace)
      val expected = if (trace) Metrics.perLayer else Metrics.endToEnd
      assert(figures.map(f => (f._1, f._3)) == expected)
      assert(rec.attempted > 0)
      assert(rec.failed == 0, rec.failureMessages)
      val json = Metrics.json(rec, figures)
      expected.foreach { case (n, u) => assert(json.contains(s""""$n": {"value": """) &&
        json.contains(s""""unit": "$u"}""")) }
      // Set-up and measured figures are real measurements, never 0.
      if (!trace) figures.foreach { case (n, v, _) => assert(v > 0, n) }
    }
  }

  test("parity check fails on a store with one point removed") {
    val work = Files.fresh(root, "parity")
    val bridge = new File(work, "bridge")
    val store = TsdbStore(new File(work, "tsdb").getPath)
    val rec = new Recorder
    Feed.writeBridge(spark, 2, 3L, bridge, rec)
    Feed.ingest(spark, bridge, new File(work, "chk"), store, 3L)
    val ok = Feed.reprocess(spark, bridge, 3L).cache()

    Feed.checkParity(rec, "intact", ok, store)
    assert(rec.failed == 0, rec.failureMessages)

    val points = Feed.storedPoints(spark, store)
    val dropped = points.orderBy(col("metric"), col("tsEpoch"), col("deviceId")).limit(1)
    val damaged = TsdbStore(new File(work, "tsdb-damaged").getPath)
    damaged.put(points.exceptAll(dropped))
    Feed.checkParity(rec, "damaged", ok, damaged)
    assert(rec.failed == 1)
    assert(rec.failureMessages.head.contains("1 points missing, 0 unexpected"))
  }
}
