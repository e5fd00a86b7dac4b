package repro.core

import org.scalacheck.{Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
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

  test("Theorem 4 over generated graphs: FSim_b^k(u,v)=1 ⇔ u,v k-bisimilar, k = 1–3") {
    var singleLabel, selfLoops, isolated, noOut, repeated, ones, fractions = 0
    val prop = Prop.forAll(TestGraphs.small) { g =>
      if (g.sigma.size == 1) singleLabel += 1
      if ((0 until g.n).exists(u => g.outAdj(u).contains(u))) selfLoops += 1
      if ((0 until g.n).exists(u => g.outAdj(u).isEmpty && g.inAdj(u).isEmpty)) isolated += 1
      if ((0 until g.n).exists(u => g.outAdj(u).isEmpty && g.inAdj(u).nonEmpty)) noOut += 1
      if (g.duplicateEdges > 0) repeated += 1
      (1 to 3).forall { k =>
        val cls = KBisimulation.classes(g, k)
        val res = FSimLocal.compute(g, g,
          FSimConfig(Variant.B, wPlus = 0.8, wMinus = 1e-12, theta = 0.0, exactIters = Some(k)))
        (0 until g.n).forall(u => (0 until g.n).forall { v =>
          val isOne = res.score(u, v) >= 1.0 - 1e-9
          if (u != v) { if (isOne) ones += 1 else fractions += 1 }
          isOne == (cls(u) == cls(v))
        })
      }
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(200).withWorkers(1)
      .withInitialSeed(Seed(20210419L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
    assert(singleLabel > 0 && selfLoops > 0 && isolated > 0 && noOut > 0 && repeated > 0,
      s"single label: $singleLabel, self-loops: $selfLoops, isolated nodes: $isolated, " +
        s"nodes without out-neighbours: $noOut, repeated edges: $repeated")
    assert(ones > 0 && fractions > 0, s"pairs u ≠ v at 1: $ones, below 1: $fractions")
  }
}
