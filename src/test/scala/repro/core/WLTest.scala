package repro.core

import repro.graph.LocalGraph

/** Weisfeiler–Lehman color refinement over the undirected labeled view of two
  * graphs (the §4.3 / Theorem 5 setting): iteratively relabel each node with
  * (old color, sorted multiset of neighbor colors) until the joint partition
  * stabilizes. Colors are exact partition ids computed over the disjoint
  * union, so s(u) == s(v) is directly comparable across the two graphs.
  */
object WLTest {

  /** Converged WL colors for the disjoint union of g1 and g2 (undirected
    * view); returns (colors over g1 ids, colors over g2 ids). Refinement only
    * splits classes, so the loop stops within n rounds, once the class count
    * stops growing.
    */
  def colors(g1: LocalGraph, g2: LocalGraph): (Array[Int], Array[Int]) = {
    val g = g1.disjointUnion(g2)
    val adj = Array.tabulate(g.n)(g.undirectedNeighbors)
    val ids0 = collection.mutable.HashMap.empty[String, Int]
    var c = g.labels.map(l => ids0.getOrElseUpdate(l, ids0.size))
    var count = ids0.size
    var changed = true
    while (changed) {
      val ids = collection.mutable.HashMap.empty[(Int, Seq[Int]), Int]
      val next = Array.tabulate(g.n) { u =>
        val key = (c(u), adj(u).map(c).sorted.toSeq)
        ids.getOrElseUpdate(key, ids.size)
      }
      changed = ids.size != count
      count = ids.size
      c = next
    }
    (c.take(g1.n), c.drop(g1.n))
  }
}
