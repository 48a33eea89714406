package perfbench

import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Collects the metrics of one run and prints them as JSON lines; the
  * result object is always the last line of standard output.
  */
final class Report {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private var attempted, failed = 0

  def metric(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  def count(attempted: Int, failed: Int): Unit = { this.attempted = attempted; this.failed = failed }

  def line(kind: String, fields: Seq[(String, Any)]): Unit =
    println(Json.obj(Seq(kind -> Json.obj(fields))).s)

  /** A metric that is not a finite number is left out, which makes the
    * result incorrect.
    */
  def result: Json.Raw = {
    val finite = metrics.toSeq.filter { case (_, (v, _)) => !v.isNaN && !v.isInfinite }
    Json.obj(Seq(
      "correct" -> (failed == 0 && attempted > 0 && finite.size == metrics.size),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> Json.obj(finite.map { case (n, (v, u)) => n -> Json.obj(Seq("value" -> v, "unit" -> u)) })))
  }
}

object Json {
  final case class Raw(s: String)

  def obj(fields: Seq[(String, Any)]): Raw =
    Raw(fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}"))

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  private def value(v: Any): String = v match {
    case Raw(s)                       => s
    case b: Boolean                   => b.toString
    case i: Int                       => i.toString
    case l: Long                      => l.toString
    case d: Double if d.isNaN || d.isInfinite => "null"
    case d: Double                    => d.toString
    case s: String                    => str(s)
  }
}

/** Entry point: `perfbench.Main --workload <name> --seed <n> --seconds <s>
  * --trace <0|1> --cores <n> [--git-sha <sha>] [--source-digest <hex>]
  * [--driver-memory <mem>] [--local-dir <dir>]`.
  *
  * One JVM, one `local[cores]` SparkSession and one caller issuing
  * operations one after another (a closed loop). `--trace 0` prints the
  * end-to-end metrics, `--trace 1` the per-layer metrics.
  */
object Main {

  /** Broadcast joins off, as in the unit tests and the table jobs. */
  val BroadcastThreshold = -1

  /** Adaptive execution off: at benchmark scale it turns every shuffle
    * stage into a job of its own (14 jobs per query instead of 3), and a
    * run no longer fits its time budget.
    */
  val Adaptive = false

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    val wl = Workloads.all.find(_.name == opts("workload"))
      .getOrElse(throw new IllegalArgumentException(s"unknown workload ${opts("workload")}"))
    val seed    = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val trace   = opts("trace") == "1"
    val cores   = opts("cores").toInt

    val (spark, sessionS) = Harness.time {
      val b = SparkSession.builder
        .master(s"local[$cores]")
        .appName(s"perfbench-${wl.name}")
        .config("spark.sql.shuffle.partitions", cores)
        .config("spark.sql.autoBroadcastJoinThreshold", BroadcastThreshold)
        .config("spark.ui.enabled", false)
        .config("spark.sql.adaptive.enabled", Adaptive)
      opts.get("local-dir").foreach { d =>
        b.config("spark.local.dir", d).config("spark.sql.warehouse.dir", s"$d/warehouse")
      }
      b.getOrCreate()
    }
    spark.sparkContext.setLogLevel("WARN")
    val out = new Report
    try {
      out.line("provenance", Seq(
        "workload" -> wl.name, "seed" -> seed, "seconds" -> seconds, "trace" -> trace,
        "git_sha" -> opts.getOrElse("git-sha", "unknown"),
        "source_digest" -> opts.getOrElse("source-digest", "unknown"),
        "nproc" -> cores, "driver_memory" -> opts.getOrElse("driver-memory", "unknown"),
        "max_heap_bytes" -> Runtime.getRuntime.maxMemory,
        "spark_version" -> spark.version, "master" -> spark.sparkContext.master,
        "spark.sql.shuffle.partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
        "spark.sql.autoBroadcastJoinThreshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "spark.sql.adaptive.enabled" -> spark.conf.get("spark.sql.adaptive.enabled"),
        "sketch_k" -> Workloads.SketchK,
        "grid" -> wl.grid.map { case (m, e) => s"($m, $e)" }.mkString(" "),
        "ari_point" -> s"(${wl.ariPoint._1}, ${wl.ariPoint._2})"))
      // The traced run loads once and warms up on the exact path only: its
      // figures carry no bound, and the time goes to the layer calls instead.
      val loaded = Setup(spark, wl, seed, sessionS, reps = if (trace) 1 else 3, warmApprox = !trace)
      if (trace) Traced.run(spark, wl, seed, seconds, cores, loaded, out)
      else Timed.run(spark, wl, seed, seconds, loaded, out)
      println(out.result.s)
    } finally spark.stop()
  }
}
