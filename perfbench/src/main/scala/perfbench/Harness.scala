package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.baseline.{SeqGraph, SeqScanIndex}
import repro.core.{ScanIndex, Similarity}
import scala.collection.mutable

/** A verification failure of a timed operation. */
final class WrongResult(msg: String) extends RuntimeException(msg)

object Harness {

  def check(cond: Boolean, msg: => String): Unit = if (!cond) throw new WrongResult(msg)

  /** Run `f`; return (result, wall seconds). */
  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** The highest percentile with at least ten samples above it, as
    * (percentile, value): the value is the 11th largest sample. With ten or
    * fewer samples no such percentile exists; the tail is then the slowest
    * of `groupMedians` (the median latency of each grid point), reported as
    * percentile 100, which is steadier than the single largest sample.
    */
  def tail(xs: Seq[Double], groupMedians: Seq[Double]): (Double, Double) = {
    val s = xs.sorted
    if (s.length <= 10) (100.0, groupMedians.max)
    else (100.0 * (s.length - 10) / s.length, s(s.length - 11))
  }

  /** Generate the workload graph, cache it and count it. */
  def load(spark: SparkSession, gen: (SparkSession, Long) => DataFrame, seed: Long): (DataFrame, Long) = {
    val edges = gen(spark, seed).cache()
    (edges, edges.count())
  }

  private def cacheManager(spark: SparkSession) =
    spark.asInstanceOf[org.apache.spark.sql.classic.SparkSession].sharedState.cacheManager

  /** Cold-cache guard: Spark swaps an identically planned cached plan into
    * any later query, so a build is only cold when the CacheManager holds
    * the input edges and nothing else. The entry count is package-private
    * in Scala but public in bytecode, hence the reflective call.
    */
  def assertCold(spark: SparkSession, edges: DataFrame): Unit = {
    val cm      = cacheManager(spark)
    val entries = cm.getClass.getMethod("numCachedEntries").invoke(cm).asInstanceOf[Int]
    check(
      entries == 1 && cm.lookupCachedData(edges.asInstanceOf[org.apache.spark.sql.classic.Dataset[_]]).isDefined,
      s"warm cache: $entries cached plans before a timed build")
  }

  /** Unpersist what an index build cached, but not the input edges the
    * index shares (`ScanIndex.unpersist` would evict them too).
    */
  def release(idx: ScanIndex): Unit = {
    idx.degrees.unpersist(); idx.similarities.unpersist()
    idx.neighborOrder.unpersist(); idx.coreOrder.unpersist()
  }

  /** Summed in-memory size of every cached RDD except `exclude`. Storage
    * reports reach the status store asynchronously, so poll until every
    * cached RDD reports all of its partitions.
    */
  def cachedBytes(spark: SparkSession, exclude: Set[Int]): Long = {
    val deadline = System.nanoTime() + 10e9.toLong
    var infos = spark.sparkContext.getRDDStorageInfo.filterNot(i => exclude(i.id))
    while (infos.exists(i => i.numCachedPartitions < i.numPartitions) && System.nanoTime() < deadline) {
      Thread.sleep(20)
      infos = spark.sparkContext.getRDDStorageInfo.filterNot(i => exclude(i.id))
    }
    check(infos.forall(i => i.numCachedPartitions == i.numPartitions), "index not fully cached")
    infos.map(_.memSize).sum
  }

  def cachedRddIds(spark: SparkSession): Set[Int] =
    spark.sparkContext.getRDDStorageInfo.map(_.id).toSet

  private val clusterSchema =
    StructType(Seq(StructField("v", LongType, false), StructField("cluster", LongType, false)))

  def clusteringDf(spark: SparkSession, c: Map[Long, Long]): DataFrame = {
    val rows = new java.util.ArrayList[Row](c.size)
    c.foreach { case (v, k) => rows.add(Row(v, k)) }
    spark.createDataFrame(rows, clusterSchema)
  }

  def verticesDf(spark: SparkSession, ids: Array[Long]): DataFrame =
    spark.createDataFrame(
      java.util.Arrays.asList(ids.map(v => Row(v)): _*),
      StructType(Seq(StructField("v", LongType, false))))

  /** Collected (v, cluster) rows → map, rejecting a vertex listed twice. */
  def toClustering(rows: Array[Row]): Map[Long, Long] = {
    val m = rows.iterator.map(r => r.getLong(0) -> r.getLong(1)).toMap
    check(m.size == rows.length, s"clustering lists ${rows.length - m.size} vertices twice")
    m
  }

  /** ARI of `a` against `b` over `ids`, unclustered vertices as singletons
    * (the convention of `repro.quality.Ari`), computed on the driver.
    */
  def ari(a: Map[Long, Long], b: Map[Long, Long], ids: Array[Long]): Double = {
    def label(c: Map[Long, Long], v: Long) = c.getOrElse(v, -v - 1)
    val nij = mutable.HashMap.empty[(Long, Long), Long]
    val ai  = mutable.HashMap.empty[Long, Long]
    val bj  = mutable.HashMap.empty[Long, Long]
    ids.foreach { v =>
      val (x, y) = (label(a, v), label(b, v))
      nij((x, y)) = nij.getOrElse((x, y), 0L) + 1
      ai(x) = ai.getOrElse(x, 0L) + 1
      bj(y) = bj.getOrElse(y, 0L) + 1
    }
    def c2(x: Long) = x.toDouble * (x - 1) / 2.0
    val total = c2(ids.length.toLong)
    if (total == 0) return 1.0
    val (sIj, sA, sB) = (nij.values.map(c2).sum, ai.values.map(c2).sum, bj.values.map(c2).sum)
    val expected = sA * sB / total
    val maxIndex = (sA + sB) / 2.0
    if (maxIndex == expected) 1.0 else (sIj - expected) / (maxIndex - expected)
  }
}

/** Shape of one clustering: the numbers recorded next to a query time. */
final case class Shape(cores: Int, epsEdges: Long, borders: Int, clusters: Int)

/** The sequential reference for one graph: `SeqScanIndex.simsOpt` sims
  * and the sequential index built from them.
  */
final class Reference(val g: SeqGraph, weighted: Boolean) {
  import Harness.check

  private def key(u: Int, v: Int): Long = (math.min(u, v).toLong << 32) | math.max(u, v).toLong

  val seqIndex: SeqScanIndex = SeqScanIndex.buildOpt(g, Similarity.Cosine)

  /** Reference sims keyed by dense endpoint pair, read off the index. */
  val sims: mutable.LongMap[Double] = {
    val m = new mutable.LongMap[Double](2 * g.numEdges.toInt + 1)
    for (v <- 0 until g.n; i <- seqIndex.noNbr(v).indices) m(key(v, seqIndex.noNbr(v)(i))) = seqIndex.noSim(v)(i)
    m
  }

  /** Exact sims must equal the reference: bit for bit when unweighted,
    * within 1e-9 when weighted (the summation orders differ).
    */
  def same(a: Double, b: Double): Boolean = if (weighted) math.abs(a - b) <= 1e-9 else a == b

  /** Collect (src, dst, sim) and check there is exactly one finite row per
    * edge, inside [-1, 1]. Returns sims keyed by dense endpoint pair.
    */
  def collectSims(df: DataFrame): mutable.LongMap[Double] = {
    val rows = df.select("src", "dst", "sim").collect()
    val out  = new mutable.LongMap[Double](2 * rows.length + 1)
    rows.foreach { r =>
      val (u, v) = (g.idOf.get(r.getLong(0)), g.idOf.get(r.getLong(1)))
      check(u.isDefined && v.isDefined, s"sim for an unknown vertex in (${r.getLong(0)}, ${r.getLong(1)})")
      val s = r.getDouble(2)
      check(!s.isNaN && s >= -1.0 && s <= 1.0, s"sim $s out of [-1, 1] at (${r.getLong(0)}, ${r.getLong(1)})")
      out(key(u.get, v.get)) = s
    }
    check(rows.length == g.numEdges && out.size == g.numEdges,
      s"${rows.length} sim rows (${out.size} distinct) for ${g.numEdges} edges")
    out
  }

  /** Check collected sims against the reference on the edges `keep` selects. */
  def checkSims(got: mutable.LongMap[Double], keep: (Int, Int) => Boolean = (_, _) => true): Unit =
    g.edges.foreach { case (u, v, _) =>
      if (keep(u, v)) {
        val (a, b) = (got(key(u, v)), sims(key(u, v)))
        check(same(a, b), s"sim of (${g.ids(u)}, ${g.ids(v)}) is $a, reference $b")
      }
    }

  /** The sequential index over given sims: the query reference for a
    * weighted graph, where an edge within rounding of ε must fall on the
    * same side in both implementations (DESIGN's ε-boundary rule).
    */
  def indexOver(got: mutable.LongMap[Double]): SeqScanIndex =
    SeqScanIndex.buildFromSims(g, (u, v) => got(key(u, v)))

  def checkClustering(got: Map[Long, Long], ref: SeqScanIndex, mu: Int, eps: Double): Unit = {
    val want = ref.cluster(mu, eps)
    check(got == want, s"clustering at ($mu, $eps) differs from the sequential query: " +
      s"${got.size} vs ${want.size} vertices, ${(got.toSet diff want.toSet).take(3)}")
  }

  def shape(ref: SeqScanIndex, c: Map[Long, Long], mu: Int, eps: Double): Shape = {
    val cores = ref.cores(mu, eps)
    val epsEdges = cores.iterator.map(v => ref.noSim(v).count(_ >= eps).toLong).sum
    Shape(cores.length, epsEdges, c.size - cores.length, c.values.toSet.size)
  }

  /** Edges the §6.3 heuristic computes exactly: some endpoint has degree ≤ k. */
  def isFallback(k: Int)(u: Int, v: Int): Boolean = g.degree(u) <= k || g.degree(v) <= k
}
