package repro

import org.scalacheck.Gen
import repro.graph.{GraphGen, LocalGraph}
import scala.util.Random

/** Small deterministic random graphs for unit tests. */
object TestGraphs {

  /** Random labeled digraph with n nodes, ~m edges, k labels. */
  def random(n: Int, m: Int, k: Int, seed: Long): LocalGraph =
    GraphGen.generate(GraphGen.Config(s"t$seed", n, m, k, skew = 0.3), seed)

  /** Random digraph with uniform edges (no skew) — denser small cases. */
  def uniform(n: Int, m: Int, k: Int, seed: Long): LocalGraph = {
    val rnd = new Random(seed)
    val sigma = (0 until k).map(i => s"l$i")
    val labels = Array.fill(n)(sigma(rnd.nextInt(k)))
    val edges = Seq.fill(m)((rnd.nextInt(n), rnd.nextInt(n))).filter(e => e._1 != e._2)
    LocalGraph.fromEdges(labels, edges)
  }

  /** A labelled digraph of 1–12 nodes over 1–3 labels for properties: its edges are drawn with
    * self-loops and repeats (dropped and counted by `fromEdges`), and nodes may be isolated or
    * have no out- or in-neighbours.
    */
  val small: Gen[LocalGraph] = for {
    n <- Gen.choose(1, 12)
    m <- Gen.choose(0, 3 * n)
    edges <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    nLabels <- Gen.choose(1, 3)
    labels <- Gen.listOfN(n, Gen.choose(0, nLabels - 1).map(l => s"l$l"))
  } yield LocalGraph.fromEdges(labels.toArray, edges)
}
