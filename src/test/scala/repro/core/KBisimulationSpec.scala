package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class KBisimulationSpec extends AnyFunSuite {

  test("k=0 classes are label classes") {
    val g = TestGraphs.uniform(12, 20, 3, 1)
    val cls = KBisimulation.classes(g, 0)
    for (u <- 0 until g.n; v <- 0 until g.n)
      assert((cls(u) == cls(v)) === (g.labels(u) == g.labels(v)))
  }

  for (seed <- 1 to 4; k <- Seq(1, 2, 3)) {
    test(s"classes refine monotonically: $k-bisimilar ⟹ ${k - 1}-bisimilar, seed $seed") {
      val g = TestGraphs.uniform(14, 28, 2, seed)
      val prev = KBisimulation.classes(g, k - 1)
      val cur = KBisimulation.classes(g, k)
      for (u <- 0 until g.n; v <- 0 until g.n if cur(u) == cur(v))
        assert(prev(u) === prev(v), s"($u,$v)")
    }
  }

  for (seed <- 1 to 4; k <- Seq(1, 2, 3)) {
    test(s"Theorem 4: FSim_b^k(u,v)=1 ⇔ u,v $k-bisimilar, seed $seed") {
      val g = TestGraphs.uniform(10, 20, 2, seed + 30)
      val cls = KBisimulation.classes(g, k)
      // single graph, out-neighbors only (w- -> 0), exactly k iterations
      val res = FSimLocal.compute(g, g,
        FSimConfig(Variant.B, wPlus = 0.8, wMinus = 1e-12, theta = 0.0,
          exactIters = Some(k)))
      for (u <- 0 until g.n; v <- 0 until g.n) {
        val isOne = res.score(u, v) >= 1.0 - 1e-9
        assert(isOne === (cls(u) == cls(v)),
          s"k=$k ($u,$v): score=${res.score(u, v)} clsEq=${cls(u) == cls(v)}")
      }
    }
  }
}
