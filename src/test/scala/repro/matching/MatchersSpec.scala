package repro.matching

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{StrongSimulation, Variant}
import repro.exp.Table6
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
    val q = repro.graph.LocalGraph.fromEdges(lbl, q0.edges.toSeq)
    assert(new TSpanMatcher(3).matchQuery(q, data).isEmpty)
  }

  for (seed <- 1 to 3) {
    test(s"strong simulation finds a match for clean queries containing the truth, seed $seed") {
      val (q, truth) = cleanQuery(4, seed + 20)
      val ms = StrongSimulation.firstMatch(q, data)
      assert(ms.nonEmpty, "clean extraction must be strong-simulated somewhere")
      // the ground-truth region itself must satisfy the conditions for some center
      val anyCovers = ms.exists(m => (0 until q.n).forall(i => m(i).nonEmpty))
      assert(anyCovers)
    }
  }

  test("strong simulation fails on a label-noised query (yes-or-no coarseness)") {
    val (q0, _) = cleanQuery(5, 31)
    val lbl = q0.labels.clone(); lbl(0) = "NO_SUCH_LABEL"
    val q = repro.graph.LocalGraph.fromEdges(lbl, q0.edges.toSeq)
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

  /** NAGA's and G-Finder's matches on fixed Table-6 queries against `data`,
    * by (scenario, query seed).
    */
  private val pinned: Seq[((String, Int), Map[Int, Int], Map[Int, Int])] = Seq(
    (("Exact", 3),
      Map(0 -> 532, 1 -> 853, 2 -> 1147, 3 -> 1160, 4 -> 1185, 5 -> 1202, 6 -> 1208, 7 -> 1242, 8 -> 1261),
      Map(0 -> 532, 1 -> 853, 2 -> 1185, 3 -> 1160, 4 -> 1147, 5 -> 1202, 6 -> 1208, 7 -> 1242, 8 -> 1261)),
    (("Noisy-L", 1),
      Map(0 -> 286, 1 -> 723, 2 -> 79, 3 -> 305, 4 -> 1040, 5 -> 833, 6 -> 1204),
      Map(0 -> 543, 1 -> 92, 2 -> 1394, 3 -> 502, 4 -> 483, 5 -> 468, 6 -> 485)),
    (("Noisy-L", 2),
      Map(0 -> 372, 1 -> 434, 2 -> 322, 3 -> 873),
      Map(0 -> 186, 1 -> 75, 2 -> 641, 3 -> 626)),
    (("Combined", 1),
      Map(0 -> 88, 1 -> 98, 2 -> 114, 3 -> 17, 4 -> 172, 5 -> 187, 6 -> 794),
      Map(0 -> 88, 1 -> 98, 2 -> 114, 3 -> 162, 4 -> 172, 5 -> 187, 6 -> 794)),
    (("Combined", 2),
      Map(0 -> 372, 1 -> 841, 2 -> 516, 3 -> 873),
      Map(0 -> 849, 1 -> 841, 2 -> 837, 3 -> 933)),
    (("Combined", 3),
      Map(0 -> 1092, 1 -> 1170, 2 -> 639, 3 -> 683, 4 -> 519, 5 -> 1495, 6 -> 230, 7 -> 1471, 8 -> 1447),
      Map(0 -> 349, 1 -> 1467, 2 -> 200, 3 -> 290, 4 -> 264, 5 -> 274, 6 -> 271, 7 -> 233, 8 -> 212)),
    (("Combined", 4),
      Map(0 -> 1335, 1 -> 471, 2 -> 566, 3 -> 533, 4 -> 495, 5 -> 390, 6 -> 1428, 7 -> 952, 8 -> 828, 9 -> 936),
      Map(0 -> 2, 1 -> 337, 2 -> 849, 3 -> 323, 4 -> 435, 5 -> 251, 6 -> 434, 7 -> 346, 8 -> 498, 9 -> 372)))

  for (((scenario, seed), naga, gFinder) <- pinned) {
    test(s"NAGA and G-Finder give their pinned matches on a $scenario query, seed $seed") {
      val (q, _) = Table6.makeQuery(data, scenario, new Random(seed))
      assert((new NagaMatcher).matchQuery(q, data) === naga)
      assert(new GFinderMatcher().matchQuery(q, data) === gFinder)
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
