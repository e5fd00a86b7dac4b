package repro.core

import repro.graph.LocalGraph

/** Strong simulation (Ma et al. 2011), the exact-simulation baseline of the
  * Table-6 pattern-matching study. A match of query Q at data node v exists
  * iff the ball G[v, δ_Q] (induced subgraph within the query's diameter)
  * admits a maximum (dual) simulation R between Q and the ball such that v is
  * in R's image and every query node has at least one match.
  */
object StrongSimulation {

  /** Centers tried per query: the first candidates in ascending id. */
  private final val MaxCenters = 300

  /** The strong-simulation match of `query` in `data` at the smallest valid
    * center, if any: for each query node, the data node ids, ascending, that
    * simulate it within that center's ball. Candidate centers are restricted
    * to nodes that survive a global dual simulation first (Ma et al.'s
    * optimization), then each ball is checked.
    */
  def firstMatch(query: LocalGraph, data: LocalGraph): Option[Array[Array[Int]]] = {
    val global = ExactSimulation.relation(query, data, Variant.S)
    // candidate centers: any data node simulating some query node globally
    val candidateCenters = {
      val bs = new java.util.BitSet(data.n)
      global.foreach(row => bs.or(row))
      bs.stream().limit(MaxCenters).toArray
    }
    val delta = math.max(1, query.diameter)
    candidateCenters.iterator.flatMap { v =>
      val ballNodes = data.ball(v, delta)
      val (ballG, origIds) = data.inducedSubgraph(ballNodes)
      val r = ExactSimulation.relation(query, ballG, Variant.S)
      val allCovered = r.forall(row => !row.isEmpty)
      val vLocal = java.util.Arrays.binarySearch(origIds, v)
      val vInImage = vLocal >= 0 && r.exists(_.get(vLocal))
      if (allCovered && vInImage) Some(r.map(_.stream().map(origIds(_)).toArray))
      else None
    }.nextOption()
  }
}
