package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.approx.ApproxSimilarity
import repro.baseline.{SeqGraph, SeqScanIndex}
import repro.core.{ScanIndex, ScanQuery, Similarity}
import repro.quality.Ari
import repro.util.Hashing
import scala.collection.mutable
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.control.NonFatal
import Harness._

/** Counts operations and failures. A failed operation is counted once and
  * never retried; its time is not recorded.
  */
final class Ops {
  var attempted = 0
  var failed    = 0

  def apply[A](what: String)(f: => A): Option[A] = {
    attempted += 1
    val t0 = System.nanoTime()
    try {
      val r = f
      Console.err.println(f"[perfbench] $what%s: ${(System.nanoTime() - t0) / 1e9}%.3f s with checks")
      Some(r)
    } catch {
      case e @ (NonFatal(_) | _: OutOfMemoryError) =>
        failed += 1
        Console.err.println(s"[perfbench] FAILED $what: $e")
        None
    }
  }

  /** Count operations that could not run because one they depend on failed. */
  def skipped(n: Int): Unit = { attempted += n; failed += n }
}

/** Everything both runs need once the graph is loaded. */
final case class Loaded(
    edges: DataFrame,
    m: Long,
    setupS: Double,
    loadS: Double,
    inputRdds: Set[Int],
    ref: Reference)

object Setup {

  /** Set up: generate and cache the graph `reps` times (keeping the last),
    * then warm up on it: an exact build and the query grid twice, and, with
    * `warmApprox`, a SimHash build, all untimed and released, so that JIT
    * and Spark's code generation are warm before anything is timed (the
    * first build in a JVM takes about twice as long as the second). To
    * shorten set-up, the warm-up operations overlap (the SimHash build runs
    * next to the exact one, the grid queries at once) and the sequential
    * reference is built meanwhile. Nothing timed overlaps anything.
    * `setupS` is the session start plus the median graph load plus the
    * warm-up; `loadS` the median graph load alone.
    */
  def apply(spark: SparkSession, wl: Workload, seed: Long, sessionS: Double, reps: Int,
      warmApprox: Boolean): Loaded = {
    val loads = (1 to reps).map { r =>
      val ((edges, m), t) = time(load(spark, wl.generate, seed))
      if (r < reps) edges.unpersist(blocking = true)
      Console.err.println(f"[perfbench] graph load $r%d: $t%.3f s, $m%d edges")
      (edges, m, t)
    }
    val (edges, m, _) = loads.last
    val ref = Future(new Reference(SeqGraph.fromDataFrame(edges), wl.weighted))(ExecutionContext.global)
    val warmS = time(warmUp(wl, edges, seed, warmApprox))._2
    Console.err.println(f"[perfbench] warm-up: $warmS%.3f s")
    val loadS = median(loads.map(_._3))
    Loaded(edges, m, sessionS + loadS + warmS, loadS, cachedRddIds(spark), Await.result(ref, Duration.Inf))
  }

  /** A query's latency keeps falling until its third run in a JVM, by about
    * a quarter from the second run to the third.
    */
  val WarmGridPasses = 2

  private def warmUp(wl: Workload, edges: DataFrame, seed: Long, warmApprox: Boolean): Unit = {
    implicit val ec: ExecutionContext = ExecutionContext.global
    val approx = Option.when(warmApprox)(Future {
      val k = Workloads.SketchK
      release(ApproxSimilarity.buildIndex(edges, Similarity.Cosine, k, Hashing.combine(seed, k.toLong))
        .cache().materialize())
    })
    val idx = ScanIndex.build(edges, Similarity.Cosine).cache().materialize()
    Seq.fill(WarmGridPasses)(wl.grid).flatten
      .map { case (mu, eps) => Future(ScanQuery.cluster(idx, mu, eps).collect()) }
      .foreach(Await.result(_, Duration.Inf))
    release(idx)
    approx.foreach(Await.result(_, Duration.Inf))
  }
}

/** The end-to-end run. Exact and approximate steps alternate: the first
  * exact step is an exact build and the query grid on that index, later
  * ones an exact build alone, and an approximate step is a SimHash build.
  * The first `MinSteps` steps always run, so every run holds an exact
  * build, a sample of each grid point and a SimHash build; after those a step starts only while the last step of its kind
  * (for the first exact build alone, the exact step with the grid) would
  * still end inside `seconds`. Every operation is verified against the
  * sequential reference. The ARI of the first approximate clustering
  * against the first exact one is computed after the timed window.
  */
object Timed {

  final case class QueryRecord(mu: Int, eps: Double, seconds: Double, shape: Shape)

  /** Exact with the grid, then approximate. */
  val MinSteps = 2

  def run(spark: SparkSession, wl: Workload, seed: Long, seconds: Double, ld: Loaded, out: Report): Unit = {
    val ops = new Ops
    val ref = ld.ref
    val k   = Workloads.SketchK
    val sketchSeed = Hashing.combine(seed, k.toLong)
    val (ariMu, ariEps) = wl.ariPoint

    val buildS, approxS, memBytes = mutable.ArrayBuffer.empty[Double]
    val queries = mutable.ArrayBuffer.empty[QueryRecord]
    var exactAtAri, approxAtAri: Option[Map[Long, Long]] = None

    /** Exact build, then, with `grid`, the query grid on it; the index is
      * released.
      */
    def exactStep(grid: Boolean): Unit = {
      var idx: ScanIndex = null
      var queryRef: SeqScanIndex = null
      ops("exact build") {
        assertCold(spark, ld.edges)
        val (i, t) = time(ScanIndex.build(ld.edges, Similarity.Cosine).cache().materialize())
        idx = i
        val got = ref.collectSims(i.similarities)
        ref.checkSims(got)
        memBytes += cachedBytes(spark, ld.inputRdds).toDouble
        queryRef = if (wl.weighted) ref.indexOver(got) else ref.seqIndex
        buildS += t
      }
      if (grid) {
        if (queryRef == null) ops.skipped(wl.grid.size)
        else wl.grid.foreach { case (mu, eps) =>
          ops(s"query ($mu, $eps)") {
            val (rows, t) = time(ScanQuery.cluster(idx, mu, eps).collect())
            val got = toClustering(rows)
            ref.checkClustering(got, queryRef, mu, eps)
            queries += QueryRecord(mu, eps, t, ref.shape(queryRef, got, mu, eps))
            if ((mu, eps) == wl.ariPoint) exactAtAri = Some(got)
          }
        }
      }
      if (idx != null) release(idx)
    }

    /** SimHash build; its clustering at the ARI point is the sequential
      * query over the approximate sims, which the exact-index queries show
      * the Spark query equals.
      */
    def approxStep(): Unit =
      ops("approx build") {
        assertCold(spark, ld.edges)
        val (a, t) = time(
          ApproxSimilarity.buildIndex(ld.edges, Similarity.Cosine, k, sketchSeed).cache().materialize())
        try {
          val got = ref.collectSims(a.similarities)
          ref.checkSims(got, ref.isFallback(k))
          if (approxAtAri.isEmpty) approxAtAri = Some(ref.indexOver(got).cluster(ariMu, ariEps))
          approxS += t
        } finally release(a)
      }

    // Step kinds: 0 exact with the grid (first step only), 1 approximate,
    // 2 exact alone.
    val steps    = Array[() => Unit](() => exactStep(grid = true), () => approxStep(), () => exactStep(grid = false))
    val lastNs   = Array.fill(steps.length)(0L)
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var done     = 0
    def kind(i: Int) = if (i == 0) 0 else if (i % 2 == 1) 1 else 2
    def estimate(kd: Int) = if (lastNs(kd) > 0) lastNs(kd) else lastNs(0)
    while (done < MinSteps || System.nanoTime() + estimate(kind(done)) <= deadline) {
      val t0 = System.nanoTime()
      steps(kind(done))()
      lastNs(kind(done)) = System.nanoTime() - t0
      done += 1
    }

    val aris = (approxAtAri, exactAtAri) match {
      case (Some(a), Some(e)) =>
        ops("ari") {
          val v = Ari.ari(clusteringDf(spark, a), clusteringDf(spark, e), verticesDf(spark, ref.g.ids))
          val want = Harness.ari(a, e, ref.g.ids)
          check(math.abs(v - want) <= 1e-9, s"ARI $v, reference $want")
          v
        }.toSeq
      case _ =>
        ops.skipped(1)
        Nil
    }

    queries.foreach { q =>
      out.line("query", Seq("mu" -> q.mu, "eps" -> q.eps, "s" -> q.seconds, "cores" -> q.shape.cores,
        "eps_edges" -> q.shape.epsEdges, "borders" -> q.shape.borders, "clusters" -> q.shape.clusters))
    }
    val qs = queries.map(_.seconds).toSeq
    val pointMedians = queries.groupBy(q => (q.mu, q.eps)).values.map(g => median(g.map(_.seconds).toSeq)).toSeq
    val (tailPct, tailS) = if (qs.isEmpty) (Double.NaN, Double.NaN) else tail(qs, pointMedians)
    out.line("summary", Seq(
      "steps" -> done, "builds" -> buildS.size, "approx_builds" -> approxS.size,
      "query_samples" -> qs.size, "query_tail_percentile" -> tailPct,
      "query_tail_rule" -> (if (qs.size > 10) "11th largest sample" else "slowest grid point's median"),
      "empty_query_frac" -> (if (queries.isEmpty) Double.NaN
                             else queries.count(_.shape.cores == 0).toDouble / queries.size),
      "attempted" -> ops.attempted, "failed" -> ops.failed,
      "failed_ops_frac" -> ops.failed.toDouble / ops.attempted,
      "ari_point" -> s"(${ariMu}, ${ariEps})"))

    out.metric("setup_s", ld.setupS, "s")
    if (buildS.nonEmpty) out.metric("build_s", median(buildS.toSeq), "s")
    if (approxS.nonEmpty) out.metric("approx_build_s", median(approxS.toSeq), "s")
    if (qs.nonEmpty) {
      out.metric("query_p50_s", median(qs), "s")
      out.metric("query_tail_s", tailS, "s")
    }
    if (memBytes.nonEmpty) out.metric("index_mem_bytes", median(memBytes.toSeq), "bytes")
    if (aris.nonEmpty) out.metric("approx_ari", median(aris), "ratio")
    out.metric("ok_ops_frac", (ops.attempted - ops.failed).toDouble / ops.attempted, "ratio")
    out.count(ops.attempted, ops.failed)
  }
}
