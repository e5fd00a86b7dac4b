package repro.core

import repro.graph.LocalGraph

/** k-bisimulation ([21]'s signature-refinement formulation, §4.3): node u is
  * k-bisimilar to v iff ℓ(u)=ℓ(v) and the *sets* of (k-1)-bisimilarity
  * classes of their out-neighbors coincide. Classes are exact partition ids
  * (no hashing). They are the Theorem-4 reference and the class function of
  * [[repro.align.KBisimAligner]].
  */
object KBisimulation {

  /** class ids after k refinements: sig(k)(u) == sig(k)(v) ⇔ u,v k-bisimilar. */
  def classes(g: LocalGraph, k: Int): Array[Int] = {
    var cls = g.labelId
    for (_ <- 1 to k) {
      val ids = collection.mutable.HashMap.empty[(Int, Set[Int]), Int]
      cls = Array.tabulate(g.n) { u =>
        // label class (= round-0 class) + set of neighbor classes, per [21]
        val key = (g.labelId(u), g.outAdj(u).map(cls).toSet)
        ids.getOrElseUpdate(key, ids.size)
      }
    }
    cls
  }
}
