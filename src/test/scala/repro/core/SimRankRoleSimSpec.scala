package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.LocalGraph

/** §4.3: the FSimχ framework, suitably configured, computes SimRank and
  * RoleSim — validated against direct reference implementations.
  */
class SimRankRoleSimSpec extends AnyFunSuite {

  private def labelFree(g: LocalGraph): LocalGraph =
    LocalGraph.fromEdges(Array.fill(g.n)("_"), g.edges.toSeq)

  for (seed <- 1 to 5) {
    test(s"FSimχ configured as SimRank equals direct SimRank, seed $seed") {
      val g = labelFree(TestGraphs.uniform(8, 16, 1, seed))
      val iters = 8
      val direct = DirectSimRankRoleSim.simRank(g, c = 0.8, iters = iters)
      val viaFramework = FSimLocal.compute(g, g, SimRankRoleSim.simRankConfig(0.8, iters))
      for (u <- 0 until g.n; v <- 0 until g.n)
        assert(math.abs(direct(u)(v) - viaFramework.score(u, v)) < 1e-6,
          s"($u,$v): direct=${direct(u)(v)} fsim=${viaFramework.score(u, v)}")
    }
  }

  for (seed <- 1 to 5) {
    test(s"FSimχ configured as RoleSim equals direct RoleSim, seed $seed") {
      val g0 = TestGraphs.uniform(8, 14, 1, seed + 40)
      val iters = 8
      val direct = DirectSimRankRoleSim.roleSim(g0, beta = 0.2, iters = iters)
      val und = SimRankRoleSim.undirectedView(g0)
      val viaFramework = FSimLocal.compute(und, und,
        SimRankRoleSim.roleSimConfig(0.2, iters))
      for (u <- 0 until g0.n; v <- 0 until g0.n)
        assert(math.abs(direct(u)(v) - viaFramework.score(u, v)) < 1e-6,
          s"($u,$v): direct=${direct(u)(v)} fsim=${viaFramework.score(u, v)}")
    }
  }

  test("SimRank: diagonal is pinned to 1") {
    val g = labelFree(TestGraphs.uniform(7, 12, 1, 3))
    val res = FSimLocal.compute(g, g, SimRankRoleSim.simRankConfig())
    for (u <- 0 until g.n) assert(res.score(u, u) === 1.0)
  }

  test("RoleSim: automorphically equivalent nodes score 1") {
    // two leaves hanging off the same hub are automorphic
    val g = LocalGraph.fromEdges(Array.fill(3)("_"), Seq((1, 0), (2, 0)))
    val direct = DirectSimRankRoleSim.roleSim(g, beta = 0.2, iters = 12)
    assert(math.abs(direct(1)(2) - 1.0) < 1e-9)
  }

  test("SimRank scores are symmetric") {
    val g = labelFree(TestGraphs.uniform(8, 16, 1, 9))
    val s = DirectSimRankRoleSim.simRank(g)
    for (u <- 0 until g.n; v <- 0 until g.n)
      assert(math.abs(s(u)(v) - s(v)(u)) < 1e-12)
  }
}
