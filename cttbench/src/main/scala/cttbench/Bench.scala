package cttbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession

/** Arguments of one benchmark run. `scale` multiplies the simulated days;
  * the benchmark's own tests use it to run at a tiny size.
  */
final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      scale: Double, workRoot: File)

object Args {
  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") =>
      k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(
      s"missing --$k; usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>"))
    Args(
      workload = need("workload"),
      seed = need("seed").toLong,
      seconds = need("seconds").toDouble,
      trace = need("trace") == "1",
      scale = 1.0,
      workRoot = new File(need("work-root")))
  }
}

/** Spark as the program's tests set it up (`local[nproc]`, broadcast joins
  * off), with the shuffle-partition count the benchmark fixes for its time
  * budget. Scratch space stays under the run's own work root.
  */
object Session {
  val ShufflePartitions = 4

  def build(workRoot: File): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("cttbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(workRoot, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(workRoot, "warehouse").getPath)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }
}

/** Collects a run's metrics, its attempted/failed operations, and the
  * human-readable report that goes to standard error.
  */
final class Recorder {
  val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private var attemptedN = 0L
  private val failures = mutable.ArrayBuffer.empty[String]
  /** Seconds each successful operation took, in order. */
  val timings = mutable.ArrayBuffer.empty[(String, Double)]

  def attempted: Long = attemptedN
  def failed: Long = failures.size.toLong
  def failureMessages: Seq[String] = failures.toSeq

  def put(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  /** One timed or checked operation: an exception counts as a failure. */
  def op[A](what: String)(f: => A): Option[A] = {
    attemptedN += 1
    val t0 = System.nanoTime()
    try { val r = f; timings += ((what, (System.nanoTime() - t0) / 1e9)); Some(r) }
    catch { case NonFatal(e) =>
      failures += s"$what: ${e.getClass.getSimpleName}: ${e.getMessage}"
      Console.err.println(s"[cttbench] FAILED $what"); e.printStackTrace()
      None
    }
  }

  /** A correctness check, attempted once and failed when `ok` is false. */
  def check(what: String, ok: => Boolean, detail: => String = ""): Boolean = {
    val r = op(what)(ok).getOrElse(false)
    if (!r && !failures.lastOption.exists(_.startsWith(what + ":")))
      failures += s"$what: $detail"
    r
  }

  def note(line: String): Unit = Console.err.println(
    f"[cttbench] ${ManagementFactory.getRuntimeMXBean.getUptime / 1000.0}%6.1f s  $line")
}

object Stats {
  /** Linear-interpolated percentile (same convention as numpy's default). */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    val pos = p / 100.0 * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Tail latency: p95 when at least 10 samples lie beyond it, otherwise the
    * largest sample (the run then has too few operations for a p95).
    */
  def tail(xs: Seq[Double]): Double =
    if (xs.size >= 200) percentile(xs, 95) else xs.max

  def nowS: Double = System.nanoTime() / 1e9

  /** Seconds taken by `f`, with its result. */
  def timed[A](f: => A): (Double, A) = {
    val t0 = System.nanoTime(); val r = f; ((System.nanoTime() - t0) / 1e9, r)
  }

  /** Driver heap in use after full collections, in MB. */
  def heapRetainedMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    for (_ <- 1 to 3) { System.gc(); Thread.sleep(50) }
    mem.getHeapMemoryUsage.getUsed / 1e6
  }
}

object Files {
  def deleteRecursively(f: File): Unit = {
    if (f.isDirectory) Option(f.listFiles()).foreach(_.foreach(deleteRecursively))
    f.delete()
  }

  /** All regular files under `dir`, recursively. */
  def listFiles(dir: File): Seq[File] =
    if (!dir.exists) Seq.empty
    else if (dir.isFile) Seq(dir)
    else Option(dir.listFiles()).toSeq.flatten.flatMap(listFiles)

  /** Parquet data files of a store and their total size in bytes. */
  def parquetFiles(dir: File): Seq[File] =
    listFiles(dir).filter(f => f.getName.endsWith(".parquet"))

  /** A new empty directory under the run's work root. */
  def fresh(root: File, name: String): File = {
    val d = new File(root, name)
    deleteRecursively(d)
    require(d.mkdirs(), s"cannot create $d")
    d
  }
}
