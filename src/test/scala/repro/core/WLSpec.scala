package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.LocalGraph

/** Theorem 5: on (undirected views of) labeled graphs, converged WL colors
  * coincide exactly with FSim_bj = 1.
  */
class WLSpec extends AnyFunSuite {

  private def undirected(g: LocalGraph): LocalGraph = {
    val edges = (0 until g.n).flatMap(u => g.undirectedNeighbors(u).map(v => (u, v)))
    LocalGraph.fromEdges(g.labels, edges)
  }

  for (seed <- 1 to 6) {
    test(s"Theorem 5: WL colors equal ⇔ FSim_bj = 1 (undirected view), seed $seed") {
      val g1 = undirected(TestGraphs.uniform(8, 12, 2, seed))
      val g2 = undirected(TestGraphs.uniform(9, 13, 2, seed + 10))
      val (c1, c2) = WLTest.colors(g1, g2)
      val res = FSimLocal.compute(g1, g2,
        FSimConfig(Variant.BJ, wPlus = 0.8, wMinus = 1e-12, theta = 0.0, epsilon = 1e-9))
      for (u <- 0 until g1.n; v <- 0 until g2.n) {
        val isOne = res.score(u, v) >= 1.0 - 1e-6
        assert(isOne === (c1(u) == c2(v)),
          s"($u,$v): score=${res.score(u, v)} wl=${c1(u) == c2(v)}")
      }
    }
  }

  test("WL runs to the stable partition on a 200-node path") {
    // the stable colour of node i is its distance to the nearer end: 100 classes
    val path = undirected(LocalGraph.fromEdges(Array.fill(200)("_"), (0 until 199).map(i => (i, i + 1))))
    val (c, _) = WLTest.colors(path, path)
    assert(c.distinct.length === 100)
    assert(c(70) !== c(100))
    assert(c(70) === c(129))
  }

  test("WL distinguishes a triangle from a path") {
    val tri = undirected(LocalGraph.fromEdges(Array.fill(3)("_"), Seq((0, 1), (1, 2), (2, 0))))
    val path = undirected(LocalGraph.fromEdges(Array.fill(3)("_"), Seq((0, 1), (1, 2))))
    val (c1, c2) = WLTest.colors(tri, path)
    for (u <- 0 until 3; v <- 0 until 3) assert(c1(u) !== c2(v))
  }

  test("WL colors of isomorphic graphs coincide under the isomorphism") {
    val a = undirected(LocalGraph.fromEdges(Array("x", "y", "x"), Seq((0, 1), (1, 2))))
    val b = undirected(LocalGraph.fromEdges(Array("x", "x", "y"), Seq((2, 1), (0, 2))))
    // iso: a0->b1, a1->b2, a2->b0
    val (c1, c2) = WLTest.colors(a, b)
    assert(c1(0) === c2(1)); assert(c1(1) === c2(2)); assert(c1(2) === c2(0))
  }

  test("bijective simulation is necessary for isomorphism but not sufficient (WL-equivalent)") {
    // classic WL failure: two triangles vs a 6-cycle (same WL colors, not isomorphic)
    val twoTriangles = undirected(LocalGraph.fromEdges(Array.fill(6)("_"),
      Seq((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))))
    val hexagon = undirected(LocalGraph.fromEdges(Array.fill(6)("_"),
      Seq((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0))))
    val (c1, c2) = WLTest.colors(twoTriangles, hexagon)
    assert(c1.toSet === c2.toSet, "WL cannot separate 2xK3 from C6")
    val res = FSimLocal.compute(twoTriangles, hexagon,
      FSimConfig(Variant.BJ, wPlus = 0.8, wMinus = 1e-12, epsilon = 1e-9))
    assert(res.score(0, 0) >= 1.0 - 1e-6, "FSim_bj agrees with the WL verdict")
  }
}
