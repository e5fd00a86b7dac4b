package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.LocalGraph

/** k-bisimulation ([21]'s signature-refinement formulation, §4.3): node u is
  * k-bisimilar to v iff ℓ(u)=ℓ(v) and the *sets* of (k-1)-bisimilarity
  * classes of their out-neighbors coincide. Classes are exact partition ids
  * (no hashing) in the local version; the Spark version uses 64-bit
  * signatures (collision-free in practice, cross-checked in tests). Either
  * one is the class function of [[repro.align.KBisimAligner]].
  */
object KBisimulation {

  /** class ids after k refinements: sig(k)(u) == sig(k)(v) ⇔ u,v k-bisimilar. */
  def classes(g: LocalGraph, k: Int): Array[Int] = {
    val labelClass: Array[Int] = {
      val ids = collection.mutable.HashMap.empty[String, Int]
      g.labels.map(l => ids.getOrElseUpdate(l, ids.size))
    }
    var cls = labelClass
    for (_ <- 1 to k) {
      val ids = collection.mutable.HashMap.empty[(Int, Set[Int]), Int]
      cls = Array.tabulate(g.n) { u =>
        // label class (= round-0 class) + set of neighbor classes, per [21]
        val key = (labelClass(u), g.outAdj(u).map(cls).toSet)
        ids.getOrElseUpdate(key, ids.size)
      }
    }
    cls
  }

  /** Distributed signature refinement: (id, sig) DataFrame iterated k times;
    * sig_k = xxhash64(sig_0, sorted distinct out-neighbor sig_{k-1}).
    */
  def signaturesSpark(spark: SparkSession, nodes: DataFrame, edges: DataFrame, k: Int): DataFrame = {
    val base = nodes.select(col("id"), xxhash64(col("label")).as("sig0"))
    var sigs = base.select(col("id"), col("sig0").as("sig"))
    for (_ <- 1 to k) {
      val nbr = edges
        .join(sigs.select(col("id").as("dst"), col("sig").as("nsig")), "dst")
        .groupBy(col("src").as("id"))
        .agg(sort_array(collect_set(col("nsig"))).as("nsigs"))
      sigs = base
        .join(nbr, Seq("id"), "left")
        .select(col("id"),
          xxhash64(col("sig0"),
            coalesce(col("nsigs"), array().cast("array<bigint>"))).as("sig"))
        .localCheckpoint(true)
    }
    sigs
  }
}
