package repro.core

import repro.graph.LocalGraph

/** Exact "yes-or-no" χ-simulation (Definitions 1–3): computes the *maximum*
  * χ-simulation relation R ⊆ V1 × V2 by coinductive fixpoint refinement —
  * start from the label-compatible pairs and repeatedly delete pairs that
  * violate the variant's conditions until stable. u ⇝χ v iff (u,v) survives.
  *
  * dp/bj conditions ("there exists an injective/bijective function") are
  * decided exactly with Kuhn's augmenting-path bipartite matching — the
  * greedy heuristic is only legitimate inside the *fractional* framework.
  */
object ExactSimulation {

  /** The maximum χ-simulation relation as one BitSet of v's per u. */
  def relation(g1: LocalGraph, g2: LocalGraph, variant: Variant): Array[java.util.BitSet] = {
    require(Variant.paper.contains(variant), s"exact simulation defined for s/dp/b/bj only")
    val n1 = g1.n; val n2 = g2.n
    val r = Array.fill(n1)(new java.util.BitSet(n2))
    for (u <- 0 until n1; v <- g2.nodesLabelled(g1.labels(u))) r(u).set(v)

    var changed = true
    while (changed) {
      changed = false
      var u = 0
      while (u < n1) {
        var v = r(u).nextSetBit(0)
        while (v >= 0) {
          if (!holds(g1, g2, r, variant, u, v)) { r(u).clear(v); changed = true }
          v = r(u).nextSetBit(v + 1)
        }
        u += 1
      }
    }
    r
  }

  /** One-step condition check for pair (u,v) against the current relation. */
  private def holds(g1: LocalGraph, g2: LocalGraph, r: Array[java.util.BitSet],
                    variant: Variant, u: Int, v: Int): Boolean = {
    def inR(x: Int, y: Int): Boolean = r(x).get(y)

    def forwardCovered(s1: Array[Int], s2: Array[Int]): Boolean =
      s1.forall(x => s2.exists(y => inR(x, y)))
    def backwardCovered(s1: Array[Int], s2: Array[Int]): Boolean =
      s2.forall(y => s1.exists(x => inR(x, y)))
    def injective(s1: Array[Int], s2: Array[Int]): Boolean =
      Bipartite.maxMatching(s1, s2, inR) == s1.length
    def bijective(s1: Array[Int], s2: Array[Int]): Boolean =
      s1.length == s2.length && Bipartite.maxMatching(s1, s2, inR) == s1.length

    variant match {
      case Variant.S =>
        forwardCovered(g1.outAdj(u), g2.outAdj(v)) && forwardCovered(g1.inAdj(u), g2.inAdj(v))
      case Variant.B =>
        forwardCovered(g1.outAdj(u), g2.outAdj(v)) && forwardCovered(g1.inAdj(u), g2.inAdj(v)) &&
          backwardCovered(g1.outAdj(u), g2.outAdj(v)) && backwardCovered(g1.inAdj(u), g2.inAdj(v))
      case Variant.DP =>
        injective(g1.outAdj(u), g2.outAdj(v)) && injective(g1.inAdj(u), g2.inAdj(v))
      case Variant.BJ =>
        bijective(g1.outAdj(u), g2.outAdj(v)) && bijective(g1.inAdj(u), g2.inAdj(v))
      case other => throw new IllegalArgumentException(other.name)
    }
  }
}

/** Kuhn's augmenting-path maximum bipartite matching — the one matcher of
  * the repository, used by exact dp/bj simulation and by the weight-1
  * refinement of [[Matching]]. Small-side sizes here are node degrees, so
  * the O(V·E) worst case is cheap.
  */
object Bipartite {

  /** Maximum matching of rows 0 until rows to columns 0 until m. Row i's
    * columns are col(off(i) until off(i + 1)), in ascending order; each row
    * tries its columns in that order. Fills matchOf(0 until m) with each
    * column's matched row or -1, using visited(0 until m) as scratch, and
    * returns the matching size. Each row searches with a fresh visited set:
    * row i stamps the columns it visits with i + 1, so visited is cleared
    * once per call, not once per row.
    */
  def matching(rows: Int, off: Array[Int], col: Array[Int], m: Int,
               matchOf: Array[Int], visited: Array[Int]): Int = {
    def tryKuhn(i: Int, stamp: Int): Boolean = {
      var k = off(i)
      while (k < off(i + 1)) {
        val j = col(k)
        if (visited(j) != stamp) {
          visited(j) = stamp
          if (matchOf(j) < 0 || tryKuhn(matchOf(j), stamp)) { matchOf(j) = i; return true }
        }
        k += 1
      }
      false
    }

    java.util.Arrays.fill(matchOf, 0, m, -1)
    java.util.Arrays.fill(visited, 0, m, 0)
    var size = 0
    var i = 0
    while (i < rows) {
      if (off(i) < off(i + 1) && tryKuhn(i, i + 1)) size += 1
      i += 1
    }
    size
  }

  /** Size of the maximum matching between s1 and s2 where (s1(i), s2(j)) is
    * an edge iff allowed(s1(i), s2(j)).
    */
  def maxMatching(s1: Array[Int], s2: Array[Int], allowed: (Int, Int) => Boolean): Int = {
    val adj = s1.map(x => s2.indices.filter(j => allowed(x, s2(j))).toArray)
    val off = adj.scanLeft(0)(_ + _.length)
    matching(s1.length, off, adj.flatten, s2.length, new Array[Int](s2.length), new Array[Int](s2.length))
  }
}
