package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.exp.Table2
import repro.graph.LocalGraph

class ExactSimulationSpec extends AnyFunSuite {

  /** Does u ⇝χ v ? */
  private def simulates(g1: LocalGraph, g2: LocalGraph, variant: Variant, u: Int, v: Int): Boolean =
    ExactSimulation.relation(g1, g2, variant)(u).get(v)

  test("bipartite matching: simple cases") {
    val all = (_: Int, _: Int) => true
    assert(Bipartite.maxMatching(Array(1, 2), Array(3, 4), all) === 2)
    assert(Bipartite.maxMatching(Array(1, 2, 3), Array(4), all) === 1)
    assert(Bipartite.maxMatching(Array.empty[Int], Array(1), all) === 0)
  }

  test("bipartite matching: needs augmenting path") {
    // 0-{a}, 1-{a,b}: greedy order 0->a then 1->b works, but force the
    // interesting case 0-{a,b}, 1-{a}: naive 0->a blocks 1.
    val allowed = Map((0, 10) -> true, (0, 11) -> true, (1, 10) -> true).withDefaultValue(false)
    assert(Bipartite.maxMatching(Array(0, 1), Array(10, 11), (a, b) => allowed((a, b))) === 2)
  }

  test("bipartite matching: the whole matchOf equals Kuhn with a fresh visited set per row") {
    // Greedy Mχ depends on which maximum matching Kuhn returns, not only on
    // its size. One matchOf/visited pair serves every call, whatever its m,
    // so a visited stamp left over from an earlier call would show.
    val matchOf = new Array[Int](12); val visited = new Array[Int](12)
    val csrGen = for {
      rows <- Gen.choose(0, 10)
      m <- Gen.choose(0, 12)
      density <- Gen.oneOf(0.1, 0.3, 0.6, 1.0)
      cells <- Gen.listOfN(rows * m, Gen.prob(density))
    } yield (rows, m, Array.tabulate(rows)(i => (0 until m).filter(j => cells(i * m + j)).toArray))
    val prop = Prop.forAll(csrGen) { case (rows, m, adj) =>
      val size = Bipartite.matching(rows, adj.scanLeft(0)(_ + _.length), adj.flatten, m, matchOf, visited)
      val want = Array.fill(m)(-1)
      def tryKuhn(i: Int, seen: Array[Boolean]): Boolean = adj(i).exists { j =>
        !seen(j) && { seen(j) = true; (want(j) < 0 || tryKuhn(want(j), seen)) && { want(j) = i; true } }
      }
      for (i <- 0 until rows) tryKuhn(i, new Array[Boolean](m))
      size == want.count(_ >= 0) && matchOf.take(m).sameElements(want)
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withWorkers(1)
      .withInitialSeed(Seed(20210419L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("Figure 1 reconstruction reproduces the paper's Table 2 check matrix") {
    for {
      variant <- Variant.paper
      (vName, vId) <- Table2.vs
    } {
      val expected = Table2.paper((variant.name, vName))._1
      val got = simulates(Table2.g1, Table2.g2, variant, Table2.u, vId)
      assert(got === expected, s"χ=${variant.name}, pair (u,$vName)")
    }
  }

  for (seed <- 1 to 8) {
    test(s"every node simulates itself under all variants (G1=G2), seed $seed") {
      val g = TestGraphs.uniform(10, 20, 2, seed)
      for (variant <- Variant.paper) {
        val r = ExactSimulation.relation(g, g, variant)
        for (u <- 0 until g.n) assert(r(u).get(u), s"χ=${variant.name}, node $u")
      }
    }
  }

  for (seed <- 1 to 8) {
    test(s"strictness hierarchy (Figure 3b): bj ⊆ dp ⊆ s and bj ⊆ b ⊆ s, seed $seed") {
      val g1 = TestGraphs.uniform(8, 14, 2, seed)
      val g2 = TestGraphs.uniform(9, 16, 2, seed + 100)
      val rs = Variant.paper.map(v => v -> ExactSimulation.relation(g1, g2, v)).toMap
      for (u <- 0 until g1.n; v <- 0 until g2.n) {
        if (rs(Variant.BJ)(u).get(v)) {
          assert(rs(Variant.DP)(u).get(v), s"bj->dp ($u,$v)")
          assert(rs(Variant.B)(u).get(v), s"bj->b ($u,$v)")
        }
        if (rs(Variant.DP)(u).get(v)) assert(rs(Variant.S)(u).get(v), s"dp->s ($u,$v)")
        if (rs(Variant.B)(u).get(v)) assert(rs(Variant.S)(u).get(v), s"b->s ($u,$v)")
      }
    }
  }

  for (seed <- 1 to 8) {
    test(s"converse invariance: b and bj relations are symmetric across graphs, seed $seed") {
      val g1 = TestGraphs.uniform(8, 14, 2, seed)
      val g2 = TestGraphs.uniform(9, 16, 2, seed + 200)
      for (variant <- Seq(Variant.B, Variant.BJ)) {
        val fwd = ExactSimulation.relation(g1, g2, variant)
        val bwd = ExactSimulation.relation(g2, g1, variant)
        for (u <- 0 until g1.n; v <- 0 until g2.n)
          assert(fwd(u).get(v) === bwd(v).get(u), s"χ=${variant.name} ($u,$v)")
      }
    }
  }

  test("label mismatch prevents simulation") {
    val g1 = LocalGraph.fromEdges(Array("a"), Seq.empty)
    val g2 = LocalGraph.fromEdges(Array("b"), Seq.empty)
    for (v <- Variant.paper)
      assert(!simulates(g1, g2, v, 0, 0))
  }

  test("isolated same-label nodes simulate each other under all variants") {
    val g1 = LocalGraph.fromEdges(Array("a"), Seq.empty)
    val g2 = LocalGraph.fromEdges(Array("a"), Seq.empty)
    for (v <- Variant.paper)
      assert(simulates(g1, g2, v, 0, 0))
  }

  test("s-simulation allows non-injective neighbor mapping; dp does not") {
    // u -> two 'x' children; v -> one 'x' child
    val g1 = LocalGraph.fromEdges(Array("a", "x", "x"), Seq((0, 1), (0, 2)))
    val g2 = LocalGraph.fromEdges(Array("a", "x"), Seq((0, 1)))
    assert(simulates(g1, g2, Variant.S, 0, 0))
    assert(!simulates(g1, g2, Variant.DP, 0, 0))
  }

  test("b-simulation requires backward coverage; s does not") {
    // u -> {x}; v -> {x, y}: v's y-child has no counterpart
    val g1 = LocalGraph.fromEdges(Array("a", "x"), Seq((0, 1)))
    val g2 = LocalGraph.fromEdges(Array("a", "x", "y"), Seq((0, 1), (0, 2)))
    assert(simulates(g1, g2, Variant.S, 0, 0))
    assert(!simulates(g1, g2, Variant.B, 0, 0))
  }

  test("bj-simulation requires equal neighbor counts") {
    // u -> {x}; v -> {x, x}
    val g1 = LocalGraph.fromEdges(Array("a", "x"), Seq((0, 1)))
    val g2 = LocalGraph.fromEdges(Array("a", "x", "x"), Seq((0, 1), (0, 2)))
    assert(simulates(g1, g2, Variant.DP, 0, 0))
    assert(simulates(g1, g2, Variant.B, 0, 0))
    assert(!simulates(g1, g2, Variant.BJ, 0, 0))
  }

  test("in-neighbors matter (Ma et al. 2011 revision)") {
    // u has an in-neighbor, v does not
    val g1 = LocalGraph.fromEdges(Array("a", "p"), Seq((1, 0)))
    val g2 = LocalGraph.fromEdges(Array("a", "p"), Seq.empty)
    assert(!simulates(g1, g2, Variant.S, 0, 0))
  }
}
