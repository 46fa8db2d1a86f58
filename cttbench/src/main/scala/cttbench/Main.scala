package cttbench

import java.io.File
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession

/** Entry point of one benchmark run:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1> --work-root <dir>
  * --out-dir <dir>`. The last line of standard output is the
  * run's JSON result; the report goes to standard error, and a traced run
  * also writes its spans and per-layer table under `--out-dir`.
  */
object Main {
  val Workloads: Map[String, (SparkSession, Args, Recorder, Option[Probes]) => Unit] = Map(
    "bulk_ingest" -> BulkIngest.run,
    "live_ingest" -> LiveIngest.run,
    "analyses" -> Analyses.run)

  def main(argv: Array[String]): Unit = {
    val a = Args.parse(argv)
    val workload = Workloads.getOrElse(a.workload, {
      Console.err.println(s"unknown workload ${a.workload}; one of ${Workloads.keys.toSeq.sorted.mkString(", ")}")
      sys.exit(2)
    })
    val outDir = new File(argv.sliding(2).collectFirst { case Array("--out-dir", d) => d }
      .getOrElse(a.workRoot.getPath))
    val rec = new Recorder
    val spark = Session.build(a.workRoot)
    val probes = if (a.trace) Some(new Probes(spark)) else None
    Trace.enabled = a.trace
    try {
      rec.op(s"${a.workload} run")(workload(spark, a, rec, probes))
      spark.streams.active.foreach(_.stop())
      rec.put("heap_retained_mb", Stats.heapRetainedMb(), "MB")
      probes.foreach(_.engineMetrics(rec))
    } catch { case NonFatal(e) => rec.op("run")(throw e) }
    Trace.enabled = false
    val figures = Metrics.select(rec, a.trace)
    val table = Report.layerTable(a, rec)
    if (a.trace) Trace.writeOut(outDir, s"${a.workload}-seed${a.seed}",
      table + "\n" + Trace.renderSpans())
    Console.err.println(Report.render(a, rec, table))
    spark.stop()
    println(Metrics.json(rec, figures))
  }
}
