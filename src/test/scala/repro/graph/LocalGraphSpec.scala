package repro.graph

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestGraphs

class LocalGraphSpec extends AnyFunSuite {

  private val g = LocalGraph.fromEdges(
    Array("a", "b", "c", "a"),
    Seq((0, 1), (1, 2), (2, 3), (0, 1))) // duplicate edge deduplicated

  test("fromEdges deduplicates and builds both adjacencies") {
    assert(g.m === 3)
    assert(g.outAdj(0).toSeq === Seq(1))
    assert(g.inAdj(1).toSeq === Seq(0))
    assert(g.outDeg(1) === 1 && g.inDeg(1) === 1)
    assert(g.duplicateEdges === 1)
  }

  test("fromEdges rejects edges with an endpoint outside 0..n-1") {
    for (e <- Seq((0, 4), (4, 0), (-1, 2), (2, -1)))
      intercept[IllegalArgumentException](LocalGraph.fromEdges(Array("a", "b", "c", "a"), Seq((0, 1), e)))
  }

  test("fromEdges rejects a null label") {
    intercept[IllegalArgumentException](LocalGraph.fromEdges(Array("a", null), Nil))
  }

  test("no graph bypasses fromEdges' checks: the constructor is private") {
    assertDoesNotCompile("""new LocalGraph(Array("a"), Array(Array(5)), Array(Array.empty[Int]))""")
  }

  test("degree and label statistics") {
    assert(g.n === 4)
    assert(g.sigma === Seq("a", "b", "c"))
    assert((0 until g.n).map(g.outDeg).max === 1)
    assert((0 until g.n).map(g.inDeg).max === 1)
    assert(math.abs(g.m.toDouble / g.n - 0.75) < 1e-12)
  }

  test("hasEdge") {
    assert(g.hasEdge(0, 1) && !g.hasEdge(1, 0) && !g.hasEdge(0, 3))
  }

  test("undirected neighbors") {
    assert(g.undirectedNeighbors(1).toSeq === Seq(0, 2))
  }

  test("ball radius 1 and 2") {
    assert(g.ball(1, 1).toSeq === Seq(0, 1, 2))
    assert(g.ball(1, 2).toSeq === Seq(0, 1, 2, 3))
  }

  test("distances: undirected hops, -1 beyond the radius or unreachable") {
    val p = LocalGraph.fromEdges(Array.fill(5)("x"), Seq((0, 1), (2, 1), (2, 3)))
    assert(p.distances(0).toSeq === Seq(0, 1, 2, 3, -1))
    assert(p.distances(0, radius = 2).toSeq === Seq(0, 1, 2, -1, -1))
  }

  test("inducedSubgraph keeps internal edges and remaps ids") {
    val (sub, ids) = g.inducedSubgraph(Array(1, 2, 3))
    assert(ids.toSeq === Seq(1, 2, 3))
    assert(sub.n === 3)
    assert(sub.edges.toSeq === Seq((0, 1), (1, 2))) // 1->2, 2->3 remapped
    assert(sub.labels.toSeq === Seq("b", "c", "a"))
  }

  test("diameter of a path graph") {
    val p = LocalGraph.fromEdges(Array.fill(5)("x"), (0 until 4).map(i => (i, i + 1)))
    assert(p.diameter === 4)
  }

  test("disjoint union shifts ids") {
    val u = g.disjointUnion(g)
    assert(u.n === 8)
    assert(u.m === 6)
    assert(u.hasEdge(4, 5))
    assert(u.labels(4) === "a")
  }

  for (seed <- 1 to 5) {
    test(s"sampleConnectedSubgraph returns a connected subgraph of requested size, seed $seed") {
      val big = TestGraphs.uniform(60, 180, 3, seed)
      val rnd = new Random(seed)
      val (q, ids) = big.sampleConnectedSubgraph(6, rnd)
      assert(q.n === 6)
      assert(ids.length === 6)
      assert(q.diameter < 6, "connected (finite eccentricities)")
      // labels preserved from the original
      for (i <- 0 until q.n) assert(q.labels(i) === big.labels(ids(i)))
      // every query edge exists in the original
      for ((a, b) <- q.edges) assert(big.hasEdge(ids(a), ids(b)))
    }
  }

  for (seed <- 1 to 5) {
    test(s"withAddedEdges adds exactly k new edges, seed $seed") {
      val base = TestGraphs.uniform(20, 40, 2, seed)
      val noisy = base.withAddedEdges(5, new Random(seed))
      assert(noisy.m === base.m + 5)
      assert(noisy.labels.toSeq === base.labels.toSeq)
    }
    test(s"withRemovedEdges removes exactly k edges, seed $seed") {
      val base = TestGraphs.uniform(20, 40, 2, seed)
      val noisy = base.withRemovedEdges(5, new Random(seed))
      assert(noisy.m === base.m - 5)
    }
    test(s"withPerturbedLabels changes exactly k labels, seed $seed") {
      val base = TestGraphs.uniform(20, 40, 4, seed)
      val sigma = base.sigma
      val noisy = base.withPerturbedLabels(5, sigma, new Random(seed))
      val changed = (0 until base.n).count(i => base.labels(i) != noisy.labels(i))
      assert(changed === 5)
      assert(noisy.m === base.m)
    }
  }

  test("withAddedEdges draws the same edges on fixed seeds") {
    val pinned = Seq(
      (TestGraphs.uniform(20, 40, 2, 1), 5, 1L, Seq((7, 13), (9, 13), (14, 4), (14, 6), (18, 8))),
      (TestGraphs.uniform(20, 40, 2, 2), 5, 2L, Seq((0, 7), (6, 19), (8, 12), (9, 10), (14, 6))),
      (TestGraphs.uniform(20, 40, 2, 3), 5, 3L, Seq((5, 2), (8, 2), (9, 4), (10, 1), (14, 0))),
      // 16 of 30 possible edges: draws hit existing and already added edges
      (TestGraphs.uniform(6, 30, 2, 4), 12, 4L, Seq((0, 3), (0, 5), (1, 5), (2, 1), (2, 4), (3, 0),
        (3, 2), (3, 5), (4, 2), (5, 1), (5, 2), (5, 3))))
    for ((base, k, seed, added) <- pinned)
      assert(base.withAddedEdges(k, new Random(seed)).edges.toSeq === (base.edges ++ added).toSeq.sorted)
  }

  /** Labels and edge lists of digraphs of 0–12 nodes over 1–4 labels;
    * self-loops, isolated nodes and repeated input edges allowed.
    */
  private val inputs: Gen[(List[String], List[(Int, Int)])] = for {
    n <- Gen.choose(0, 12)
    edges <- if (n == 0) Gen.const(Nil) else Gen.listOf(Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    labels <- Gen.listOfN(n, Gen.oneOf("a", "b", "c", "d"))
  } yield (labels, edges)

  private val graphs: Gen[LocalGraph] = inputs.map { case (labels, edges) => LocalGraph.fromEdges(labels.toArray, edges) }

  private val params = Test.Parameters.default.withMinSuccessfulTests(300).withWorkers(1).withInitialSeed(Seed(17L))

  /** Σ, the label ids, the label buckets (of Σ and of one absent label), the
    * undirected neighbours and their label counts, and the N⁺ = N⁻ flags.
    */
  private def views(g: LocalGraph) = (g.sigma, g.labelId.toSeq, (g.sigma :+ "absent").map(g.nodesLabelled(_).toSeq),
    (0 until g.n).map(g.undirectedNeighbors(_).toSeq), (0 until g.n).map(g.neighborLabels), g.mutual.toSeq)

  private def serialise(g: LocalGraph): Array[Byte] = {
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(g); out.close()
    bytes.toByteArray
  }

  test("label views and undirected neighbours equal brute force, and are not serialised") {
    var isolated, selfLoops, mutual = 0 // mutual: nodes with neighbours, every edge at them running both ways
    val result = Test.check(params, Prop.forAll(graphs) { g =>
      val unread = serialise(g)
      val sigma = g.labels.foldLeft(Vector.empty[String])((s, l) => if (s.contains(l)) s else s :+ l)
      val nbrs = (0 until g.n).map(u => (0 until g.n).filter(v => g.hasEdge(u, v) || g.hasEdge(v, u)))
      isolated += nbrs.count(_.isEmpty)
      selfLoops += (0 until g.n).count(u => g.hasEdge(u, u))
      val bothWays = (0 until g.n).map(u => (0 until g.n).forall(v => g.hasEdge(u, v) == g.hasEdge(v, u)))
      mutual += (0 until g.n).count(u => bothWays(u) && nbrs(u).nonEmpty)
      val brute = (sigma, g.labels.toSeq.map(sigma.indexOf(_)),
        (sigma :+ "absent").map(l => (0 until g.n).filter(g.labels(_) == l)), nbrs,
        nbrs.map(vs => vs.map(g.labels).distinct.map(l => l -> vs.count(g.labels(_) == l)).toMap), bothWays)
      val read = views(g)
      val bytes = serialise(g)
      val copy = new ObjectInputStream(new ByteArrayInputStream(bytes)).readObject().asInstanceOf[LocalGraph]
      read == brute && (bytes sameElements unread) && views(copy) == read
    })
    assert(result.passed, Pretty.pretty(result))
    assert(isolated > 0 && selfLoops > 0 && mutual > 0,
      s"isolated nodes: $isolated; self-loops: $selfLoops; nodes with N⁺ = N⁻ ≠ ∅: $mutual")
  }

  /** Every row sorted and duplicate-free, and `inAdj` the transpose of `outAdj`. */
  private def wellFormed(g: LocalGraph): Boolean =
    g.outAdj.length == g.n && g.inAdj.length == g.n &&
      (g.outAdj ++ g.inAdj).forall(r => r.indices.drop(1).forall(i => r(i - 1) < r(i))) &&
      (for (v <- 0 until g.n; u <- g.inAdj(v)) yield (u, v)).sorted == g.edges.toSeq

  test("graph ops give well-formed graphs; subgraph and union edges equal brute force") {
    val cases = for {
      in1 <- inputs; in2 <- inputs
      nodes <- if (in1._1.isEmpty) Gen.const(Nil) else Gen.listOf(Gen.choose(0, in1._1.length - 1))
      k <- Gen.choose(0, 6); seed <- Gen.long
    } yield (in1, in2, nodes, k, seed)
    var repeated, selfLoops, isolated, addedToEmpty = 0
    val result = Test.check(params, Prop.forAll(cases) { case ((l1, e1), (l2, e2), nodes, k, seed) =>
      val g = LocalGraph.fromEdges(l1.toArray, e1); val h = LocalGraph.fromEdges(l2.toArray, e2)
      repeated += e1.length - e1.distinct.length
      selfLoops += e1.count { case (u, v) => u == v }
      isolated += (0 until g.n).count(g.undirectedNeighbors(_).isEmpty)
      val ids = nodes.distinct.sorted
      val (sub, subIds) = g.inducedSubgraph(nodes.toArray)
      val subEdges = e1.distinct.collect { case (u, v) if ids.contains(u) && ids.contains(v) => (ids.indexOf(u), ids.indexOf(v)) }
      val union = g.disjointUnion(h)
      val unionEdges = (e1 ++ e2.map { case (u, v) => (u + g.n, v + g.n) }).distinct
      val rnd = new Random(seed)
      if (g.n == 0 && k > 0) addedToEmpty += 1
      val added = g.withAddedEdges(k, rnd)
      val removed = g.withRemovedEdges(k, rnd)
      val relabelled = g.withPerturbedLabels(k, g.sigma, rnd)
      Seq(sub, union, added, removed, relabelled).forall(wellFormed) &&
        subIds.toSeq == ids && sub.labels.toSeq == ids.map(l1) && sub.edges.toSeq == subEdges.sorted &&
        union.labels.toSeq == l1 ++ l2 && union.edges.toSeq == unionEdges.sorted &&
        g.edges.forall { case (u, v) => added.hasEdge(u, v) } && removed.edges.forall { case (u, v) => g.hasEdge(u, v) } &&
        relabelled.edges.toSeq == g.edges.toSeq
    })
    assert(result.passed, Pretty.pretty(result))
    assert(repeated > 0 && selfLoops > 0 && isolated > 0 && addedToEmpty > 0,
      s"repeated edges: $repeated; self-loops: $selfLoops; isolated nodes: $isolated; " +
        s"edges added to an empty graph: $addedToEmpty")
  }

  test("empty graph edge cases") {
    val e = LocalGraph.fromEdges(Array.empty[String], Seq.empty)
    assert(e.n === 0 && e.m === 0 && e.outAdj.isEmpty && e.edges.isEmpty)
    // there is no pair to draw, so adding edges leaves the graph empty
    for (k <- Seq(0, 1, 5)) {
      val added = e.withAddedEdges(k, new Random(k))
      assert(added.n === 0 && added.edges.isEmpty, s"k = $k")
    }
  }
}
