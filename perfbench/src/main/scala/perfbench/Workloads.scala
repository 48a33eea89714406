package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.GraphGen
import repro.util.Hashing

/** One benchmark workload: a graph generated from the workload seed, the
  * (μ, ε) grid of clustering queries run on its exact index, and the point
  * at which the approximate clustering is scored against the exact one.
  * Each grid runs from its heaviest point through the ARI point, where the
  * exact clustering is non-trivial, to an empty one.
  */
final case class Workload(
    name: String,
    weighted: Boolean,
    generate: (SparkSession, Long) => DataFrame,
    grid: Seq[(Int, Double)],
    ariPoint: (Int, Double))

object Workloads {

  /** SimHash samples for the approximate index (the paper's k = 64). */
  val SketchK = 64

  /** RMAT power-law graph, the orkut-lite family of `repro.tables.Datasets`
    * at a smaller scale. Skewed degrees make the wedge join and the NO/CO
    * windows skewed, and most edges have an endpoint of degree ≤ k, so the
    * LSH build is mostly the §6.3 exact fallback (Fig 8's Orkut case).
    */
  val orkutLite: Workload = Workload(
    name = "orkut-lite",
    weighted = false,
    generate = (s, seed) => GraphGen.rmat(s, 12, 30000L, seed),
    grid = Seq((2, 0.2), (3, 0.2), (8, 0.5)),
    ariPoint = (3, 0.2))

  /** Planted-partition graph with community-dependent weights. Degrees are
    * uniformly high (nearly every vertex has degree > k, so nearly every
    * edge is sketched) and the weighted floating-point path is exercised;
    * the planted communities give non-trivial clusterings.
    */
  val densePlanted: Workload = Workload(
    name = "dense-planted",
    weighted = true,
    generate = (s, seed) => planted(s, 600, seed),
    grid = Seq((5, 0.7), (20, 0.8), (60, 0.8)),
    ariPoint = (20, 0.8))

  val all: Seq[Workload] = Seq(orkutLite, densePlanted)

  /** `GraphGen.plantedPartition` with 10 communities, pIn 0.9 and pOut 0.05,
    * re-weighted from the seed: (0.5, 1] inside a community, (0, 0.5]
    * across. With pOut 0.15 the k = 64 estimates of inter-community edges
    * reach the intra-community sims, and the ARI at any (μ, ε) with a
    * non-trivial clustering swings between 0.36 and 0.99 from seed to seed.
    */
  def planted(spark: SparkSession, n: Int, seed: Long): DataFrame = {
    val communities = 10
    val commSize    = n / communities
    val weight = udf { (s: Long, d: Long) =>
      val u = Hashing.uniform(Hashing.combine(seed ^ 0x77e1L, s, d))
      if (s / commSize == d / commSize) 1.0 - 0.5 * u else 0.5 - 0.5 * u
    }
    GraphGen
      .plantedPartition(spark, n, communities, 0.9, 0.05, seed)
      .select(col("src"), col("dst"), weight(col("src"), col("dst")).as("weight"))
  }
}
