package repro.matching

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{StrongSimulation, Variant}
import repro.graph.{GraphGen, LocalGraph}
import scala.util.Random

class MatchersSpec extends AnyFunSuite {

  private lazy val data = GraphGen.amazonLike(1500, seed = 3L)

  test("F1 helper: perfect, partial, empty") {
    val truth = Array(10, 11, 12)
    assert(Matcher.f1(truth, Map(0 -> 10, 1 -> 11, 2 -> 12)) === 1.0)
    assert(Matcher.f1(truth, Map.empty) === 0.0)
    val half = Matcher.f1(truth, Map(0 -> 10, 1 -> 99))
    // P = 1/2, R = 1/3 -> F1 = 0.4
    assert(math.abs(half - 0.4) < 1e-12)
  }

  private def cleanQuery(size: Int, seed: Int) = {
    val rnd = new Random(seed)
    data.sampleConnectedSubgraph(size, rnd)
  }

  for (seed <- 1 to 4) {
    test(s"FSim_s matcher recovers a clean extracted query (F1 high), seed $seed") {
      val (q, truth) = cleanQuery(5, seed)
      val f1 = Matcher.f1(truth, new FSimMatcher(Variant.S).matchQuery(q, data))
      assert(f1 >= 0.8, s"f1=$f1")
    }
  }

  for (seed <- 1 to 4) {
    test(s"TSpan-0-like exact backtracking finds a zero-miss match on clean queries, seed $seed") {
      val (q, truth) = cleanQuery(5, seed + 10)
      val pred = new TSpanMatcher(0).matchQuery(q, data)
      assert(pred.size === q.n)
      // a zero-miss assignment realizes every query edge in the data graph
      for ((a, b) <- q.edges) assert(data.hasEdge(pred(a), pred(b)))
    }
  }

  test("TSpan respects the miss budget") {
    val (q0, _) = cleanQuery(5, 77)
    val q = q0.withAddedEdges(4, new Random(1)) // 4 bogus edges
    val pred1 = new TSpanMatcher(1).matchQuery(q, data)
    if (pred1.nonEmpty) {
      val misses = q.edges.count { case (a, b) => !data.hasEdge(pred1(a), pred1(b)) }
      assert(misses <= 1)
    }
    val pred4 = new TSpanMatcher(4).matchQuery(q, data)
    assert(pred4.nonEmpty, "budget 4 must absorb 4 added edges")
  }

  test("TSpan returns empty when a query label is absent from the data graph") {
    val (q0, _) = cleanQuery(4, 5)
    val lbl = q0.labels.clone(); lbl(0) = "NO_SUCH_LABEL"
    val q = new repro.graph.LocalGraph(lbl, q0.outAdj, q0.inAdj)
    assert(new TSpanMatcher(3).matchQuery(q, data).isEmpty)
  }

  for (seed <- 1 to 3) {
    test(s"strong simulation finds a match for clean queries containing the truth, seed $seed") {
      val (q, truth) = cleanQuery(4, seed + 20)
      val ms = StrongSimulation.firstMatch(q, data)
      assert(ms.nonEmpty, "clean extraction must be strong-simulated somewhere")
      // the ground-truth region itself must satisfy the conditions for some center
      val anyCovers = ms.exists(m => (0 until q.n).forall(i => m.matches(i).nonEmpty))
      assert(anyCovers)
    }
  }

  test("strong simulation fails on a label-noised query (yes-or-no coarseness)") {
    val (q0, _) = cleanQuery(5, 31)
    val lbl = q0.labels.clone(); lbl(0) = "NO_SUCH_LABEL"
    val q = new repro.graph.LocalGraph(lbl, q0.outAdj, q0.inAdj)
    assert(StrongSimulation.firstMatch(q, data).isEmpty)
  }

  for (seed <- 1 to 3) {
    test(s"NAGA/G-Finder produce label-consistent full assignments on clean queries, seed $seed") {
      val (q, _) = cleanQuery(5, seed + 40)
      val naga = (new NagaMatcher).matchQuery(q, data)
      assert(naga.size === q.n)
      naga.foreach { case (qq, v) => assert(data.labels(v) === q.labels(qq)) }
      val gf = new GFinderMatcher().matchQuery(q, data)
      assert(gf.size === q.n)
    }
  }

  test("matchers assign distinct data nodes (injective matches)") {
    val (q, _) = cleanQuery(6, 51)
    for (m <- Seq(new FSimMatcher(Variant.DP), new NagaMatcher, new GFinderMatcher,
      new TSpanMatcher(2))) {
      val pred = m.matchQuery(q, data)
      assert(pred.values.toSeq.distinct.size === pred.size, m.name)
    }
    // on a tie the first query node and the first data node win
    val flat = new SeedExpandMatcher {
      val name = "flat"
      protected def scores(query: LocalGraph, data: LocalGraph): (Int, Int) => Double = (_, _) => 1.0
    }
    val pred = flat.matchQuery(LocalGraph.fromEdges(Array("a", "a"), Nil), LocalGraph.fromEdges(Array.fill(3)("a"), Nil))
    assert(pred === Map(0 -> 0, 1 -> 1))
  }
}
