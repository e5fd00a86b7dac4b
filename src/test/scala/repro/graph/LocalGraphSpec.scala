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

  /** Labelled digraphs of 0–12 nodes over 1–4 labels; self-loops, isolated
    * nodes and repeated input edges allowed.
    */
  private val graphs: Gen[LocalGraph] = for {
    n <- Gen.choose(0, 12)
    edges <- if (n == 0) Gen.const(Nil) else Gen.listOf(Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    labels <- Gen.listOfN(n, Gen.oneOf("a", "b", "c", "d"))
  } yield LocalGraph.fromEdges(labels.toArray, edges)

  /** Σ, the label ids, the label buckets (of Σ and of one absent label), the
    * undirected neighbours and their label counts.
    */
  private def views(g: LocalGraph) = (g.sigma, g.labelId.toSeq, (g.sigma :+ "absent").map(g.nodesLabelled(_).toSeq),
    (0 until g.n).map(g.undirectedNeighbors(_).toSeq), (0 until g.n).map(g.neighborLabels))

  private def serialise(g: LocalGraph): Array[Byte] = {
    val bytes = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bytes)
    out.writeObject(g); out.close()
    bytes.toByteArray
  }

  test("label views and undirected neighbours equal brute force, and are not serialised") {
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withWorkers(1).withInitialSeed(Seed(17L))
    var isolated, selfLoops = 0
    val result = Test.check(params, Prop.forAll(graphs) { g =>
      val unread = serialise(g)
      val sigma = g.labels.foldLeft(Vector.empty[String])((s, l) => if (s.contains(l)) s else s :+ l)
      val nbrs = (0 until g.n).map(u => (0 until g.n).filter(v => g.hasEdge(u, v) || g.hasEdge(v, u)))
      isolated += nbrs.count(_.isEmpty)
      selfLoops += (0 until g.n).count(u => g.hasEdge(u, u))
      val brute = (sigma, g.labels.toSeq.map(sigma.indexOf(_)),
        (sigma :+ "absent").map(l => (0 until g.n).filter(g.labels(_) == l)), nbrs,
        nbrs.map(vs => vs.map(g.labels).distinct.map(l => l -> vs.count(g.labels(_) == l)).toMap))
      val read = views(g)
      val bytes = serialise(g)
      val copy = new ObjectInputStream(new ByteArrayInputStream(bytes)).readObject().asInstanceOf[LocalGraph]
      read == brute && (bytes sameElements unread) && views(copy) == read
    })
    assert(result.passed, Pretty.pretty(result))
    assert(isolated > 0 && selfLoops > 0, s"isolated nodes: $isolated; self-loops: $selfLoops")
  }

  test("empty graph edge cases") {
    val e = LocalGraph.fromEdges(Array.empty[String], Seq.empty)
    assert(e.n === 0 && e.m === 0 && e.outAdj.isEmpty && e.edges.isEmpty)
  }
}
