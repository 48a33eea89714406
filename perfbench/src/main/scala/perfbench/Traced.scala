package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.approx.SimHash
import repro.baseline.SeqScanIndex
import repro.connectivity.Connectivity
import repro.core.{ScanIndex, ScanQuery, Similarity}
import repro.graph.GraphOps
import repro.util.Hashing
import scala.collection.mutable
import Harness._

/** The traced run: calls each layer's public functions one at a time,
  * attributes Spark work to each call with a `LayerListener`, and repeats
  * the whole pass while another one fits in `seconds` (at least once).
  * Every per-layer figure is the median over passes.
  */
object Traced {

  def run(spark: SparkSession, wl: Workload, seed: Long, seconds: Double, cores: Int,
      ld: Loaded, out: Report): Unit = {
    val ops      = new Ops
    val listener = new LayerListener(spark)
    spark.sparkContext.addSparkListener(listener)
    val samples  = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    def rec(name: String, v: Double): Unit = samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v
    val ref = ld.ref
    val g   = ref.g

    // Graph figures do not change between passes.
    rec("graph.load_s", ld.loadS)
    rec("graph.edges", ld.m.toDouble)
    rec("graph.vertices", g.n.toDouble)
    rec("graph.max_degree", (0 until g.n).map(g.degree).max.toDouble)
    rec("graph.wedges", wedges(ref).toDouble)

    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    var passes   = 0
    var lastPass = 0L
    while (passes == 0 || System.nanoTime() + lastPass <= deadline) {
      passes += 1
      val t0 = System.nanoTime()
      try pass(spark, wl, seed, cores, ld, ops, listener, rec)
      catch { case e: WrongResult => Console.err.println(s"[perfbench] pass abandoned: $e") }
      lastPass = System.nanoTime() - t0
    }
    spark.sparkContext.removeSparkListener(listener)

    out.line("summary", Seq("passes" -> passes, "attempted" -> ops.attempted, "failed" -> ops.failed))
    samples.foreach { case (name, xs) => out.metric(name, median(xs.toSeq), unitOf(name)) }
    out.count(ops.attempted, ops.failed)
  }

  private def unitOf(name: String): String =
    if (name.endsWith("_s")) "s"
    else if (name.endsWith("_bytes")) "bytes"
    else if (name.endsWith("_frac") || name.endsWith("_share")) "ratio"
    else "count"

  /** Σ C(outdeg, 2) with edges directed toward the higher-(degree, id)
    * endpoint: the wedges the §6.1 kernel enumerates.
    */
  private def wedges(ref: Reference): Long = {
    val g = ref.g
    (0 until g.n).iterator.map { v =>
      val d = g.adj(v).count(u => g.degree(u) > g.degree(v) || (g.degree(u) == g.degree(v) && u > v)).toLong
      d * (d - 1) / 2
    }.sum
  }

  private def pass(
      spark: SparkSession,
      wl: Workload,
      seed: Long,
      cores: Int,
      ld: Loaded,
      ops: Ops,
      listener: LayerListener,
      rec: (String, Double) => Unit): Unit = {
    val edges = ld.edges
    val ref   = ld.ref
    val k     = Workloads.SketchK

    // The end-to-end build untraced, then the same build one layer at a
    // time under the listener. The traced build's total time (layers,
    // listener and fences) minus the untraced one is the tracing overhead.
    assertCold(spark, edges)
    val (plain, buildS) = time(ScanIndex.build(edges, Similarity.Cosine).cache().materialize())
    release(plain)
    assertCold(spark, edges)
    val ((sims, simS, simW, idx, ordS, ordW), tracedS) = time {
      val (sims, simS, simW) = listener.layer("similarity") {
        val s = Similarity.similarities(edges, Similarity.Cosine).cache()
        s.count()
        s
      }
      val (idx, ordS, ordW) =
        listener.layer("scan_index")(ScanIndex.fromSimilarities(edges, sims).cache().materialize())
      (sims, simS, simW, idx, ordS, ordW)
    }
    rec("trace.overhead_s", tracedS - buildS)
    rec("build.layer_gap_s", buildS - simS - ordS)
    val gotSims = ops("exact sims")(ref.collectSims(sims)).getOrElse(throw new WrongResult("exact sims"))
    ops("exact sims match")(ref.checkSims(gotSims))
    rec("similarity.exact_s", simS)
    rec("similarity.exact.executor_s", simW.executorS)
    rec("similarity.exact.cpu_share", simW.executorS / (simS * cores))
    rec("similarity.exact.shuffle_write_bytes", simW.shuffleWrite.toDouble)
    rec("similarity.exact.spill_bytes", simW.spill.toDouble)
    rec("similarity.exact.tasks", simW.tasks.toDouble)
    rec("scan_index.orders_s", ordS)
    rec("scan_index.executor_s", ordW.executorS)
    rec("scan_index.shuffle_write_bytes", ordW.shuffleWrite.toDouble)
    rec("scan_index.spill_bytes", ordW.spill.toDouble)
    rec("scan_index.no_rows", idx.neighborOrder.count().toDouble)
    rec("scan_index.co_rows", idx.coreOrder.count().toDouble)

    // Output shape over the whole grid, from the sequential reference
    // (the end-to-end run checks every Spark query against it).
    val queryRef = if (wl.weighted) ref.indexOver(gotSims) else ref.seqIndex
    val shapes = wl.grid.map { case (mu, eps) => ref.shape(queryRef, queryRef.cluster(mu, eps), mu, eps) }
    rec("scan_query.cores_rows", shapes.map(_.cores.toDouble).sum)
    rec("scan_query.eps_edges", shapes.map(_.epsEdges.toDouble).sum)
    rec("scan_query.borders", shapes.map(_.borders.toDouble).sum)
    rec("scan_query.clusters", shapes.map(_.clusters.toDouble).sum)
    rec("scan_query.empty_frac", shapes.count(_.cores == 0).toDouble / shapes.size)
    rec("baseline.seq_query_p50_s", median(wl.grid.map { case (mu, eps) => time(queryRef.cluster(mu, eps))._2 }))

    // Spark queries at the heaviest point, the ARI point and the emptiest
    // point: the core filter alone and the whole query under the listener;
    // at the heaviest point also its connectivity step, through a probe that
    // runs GraphX on the same inputs as union-find.
    val points = Seq(wl.grid.head, wl.ariPoint, wl.grid.last).distinct
    val coresS, jobs, ufS, gxS = mutable.ArrayBuffer.empty[Double]
    var shuffleRead, collected, coreCore = 0L
    var atAri = Map.empty[Long, Long]
    points.foreach { case (mu, eps) =>
      coresS += time(ScanQuery.cores(idx, mu, eps).collect())._2
      val (rows, _, w) = listener.layer("scan_query")(ScanQuery.cluster(idx, mu, eps).collect())
      ops(s"query ($mu, $eps)") {
        val got = toClustering(rows)
        ref.checkClustering(got, queryRef, mu, eps)
        if ((mu, eps) == wl.ariPoint) atAri = got
      }
      jobs += w.jobs.toDouble
      shuffleRead += w.shuffleRead

      if ((mu, eps) == wl.grid.head) {
        val probe = (s: SparkSession, vs: DataFrame, es: DataFrame) => {
          val (nv, ne) = (vs.count(), es.count())
          collected += nv + ne
          coreCore += ne
          val (uf, tUf) = time(Connectivity.connectedComponentsUnionFind(s, vs, es))
          val (gx, tGx) = time(Connectivity.connectedComponentsGraphX(s, vs, es).collect())
          ufS += tUf; gxS += tGx
          ops(s"connectivity ($mu, $eps)") {
            val a = uf.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
            check(a == gx.map(r => r.getLong(0) -> r.getLong(1)).toMap, "union-find and GraphX components differ")
          }
          uf
        }
        ScanQuery.cluster(idx, mu, eps, probe)
      }
    }
    rec("scan_query.cores_s", median(coresS.toSeq))
    rec("scan_query.jobs_per_query", median(jobs.toSeq))
    rec("scan_query.shuffle_read_bytes", shuffleRead.toDouble / points.size)
    rec("connectivity.union_find_s", median(ufS.toSeq))
    rec("connectivity.graphx_s", median(gxS.toSeq))
    rec("connectivity.collected_rows", collected.toDouble)
    rec("connectivity.core_core_edges", coreCore.toDouble)

    val (roles, hubsS) = time(ScanQuery.hubsAndOutliers(edges, clusteringDf(spark, atAri)).collect())
    ops("hubs and outliers") {
      val got = roles.map(r => r.getLong(0) -> r.getString(1)).toMap
      check(got == queryRef.hubsAndOutliers(atAri), "hubs and outliers differ from the sequential reference")
    }
    rec("scan_query.hubs_s", hubsS)
    release(idx)
    sims.unpersist()

    approxLayers(spark, edges, ref, k, Hashing.combine(seed, k.toLong), ops, listener, rec)

    rec("baseline.seq_build_basic_s", time(SeqScanIndex.buildBasic(ref.g, Similarity.Cosine))._2)
    rec("baseline.seq_build_opt_s", time(SeqScanIndex.buildOpt(ref.g, Similarity.Cosine))._2)
  }

  /** The §6.3 LSH build one layer at a time: exact fallback, sketching,
    * estimation and the index orders, split the way `ApproxSimilarity`
    * splits the edges.
    */
  private def approxLayers(
      spark: SparkSession,
      edges: DataFrame,
      ref: Reference,
      k: Int,
      sketchSeed: Long,
      ops: Ops,
      listener: LayerListener,
      rec: (String, Double) => Unit): Unit = {
    assertCold(spark, edges)
    val deg = GraphOps.degrees(edges)
    val withDegs = edges
      .join(deg.select(col("v").as("sv"), col("deg").as("ds")), col("src") === col("sv"))
      .join(deg.select(col("v").as("dv"), col("deg").as("dd")), col("dst") === col("dv"))
    val sketched    = col("ds") > k && col("dd") > k
    val approxEdges = withDegs.filter(sketched).select("src", "dst").cache()
    val exactEdges  = withDegs.filter(!sketched).select("src", "dst")
    val nApprox = approxEdges.count()

    val (fallback, fbS, fbW) = listener.layer("approx.exact_fallback") {
      val s = Similarity.similaritiesForEdges(edges, exactEdges, Similarity.Cosine).cache()
      s.count()
      s
    }
    val sketchVerts = approxEdges.select(col("src").as("v"))
      .unionByName(approxEdges.select(col("dst").as("v"))).distinct()
    val closedAdj = GraphOps.closedAdjacency(edges).join(sketchVerts, Seq("v"))
    val (sketches, skS, skW) = listener.layer("approx.sketch") {
      val s = SimHash.sketches(spark, closedAdj, k, sketchSeed).cache()
      s.count()
      s
    }
    val (estimates, estS, _) = listener.layer("approx.estimate") {
      val s = SimHash.similaritiesFromSketches(approxEdges, sketches, k).cache()
      s.count()
      s
    }
    val (aidx, ordS, _) = listener.layer("approx.orders")(
      ScanIndex.fromSimilarities(edges, fallback.unionByName(estimates)).cache().materialize())

    ops("approx layers") {
      val got = ref.collectSims(aidx.similarities)
      ref.checkSims(got, ref.isFallback(k))
    }
    val nExact = ref.g.numEdges - nApprox
    rec("approx.exact_fallback_s", fbS)
    rec("approx.exact_fallback.executor_s", fbW.executorS)
    rec("approx.exact_fallback.shuffle_write_bytes", fbW.shuffleWrite.toDouble)
    rec("approx.exact_fallback.spill_bytes", fbW.spill.toDouble)
    rec("approx.sketch_s", skS)
    rec("approx.sketch.executor_s", skW.executorS)
    rec("approx.sketch.shuffle_write_bytes", skW.shuffleWrite.toDouble)
    rec("approx.sketch.spill_bytes", skW.spill.toDouble)
    rec("approx.estimate_s", estS)
    rec("approx.orders_s", ordS)
    rec("approx.sketched_vertices", sketches.count().toDouble)
    rec("approx.approx_edges", nApprox.toDouble)
    rec("approx.exact_edges", nExact.toDouble)
    rec("approx.approx_edge_frac", nApprox.toDouble / ref.g.numEdges)

    release(aidx)
    Seq(fallback, sketches, estimates, approxEdges).foreach(_.unpersist())
  }
}
