package repro.graph

import scala.collection.mutable
import scala.util.Random

/** Evolving RDF-like graph versions for the alignment case study (Table 9).
  *
  * The paper aligns three time-versions G1 ⊂~ G2 ⊂~ G3 of the
  * Guide-to-Pharmacology RDF graph (8 node labels, stable URIs as ground
  * truth). We generate G3 and derive the earlier versions by restricting to
  * the oldest node ids (ids are creation-ordered) and applying a small edge
  * churn, so versions are *near*-subgraphs — like real evolving RDF dumps.
  * Ground-truth alignment is the identity on shared ids.
  *
  * Node-label model: 5 entity types + 3 attribute/value types (the real data
  * has 8 node labels; its 23 edge labels are folded into the structure by
  * typed attribute nodes — a standard edge-label-to-node-label encoding).
  * Entities get distinctive random attribute sets, which is what makes real
  * RDF entities structurally distinguishable (few automorphic twins).
  */
object RdfVersions {

  final case class Versions(g1: LocalGraph, g2: LocalGraph, g3: LocalGraph)

  val entityLabels: IndexedSeq[String] =
    IndexedSeq("Target", "Ligand", "Interaction", "Family", "Reference")
  val attrLabels: IndexedSeq[String] = IndexedSeq("ValueA", "ValueB", "ValueC")

  private final val Seed = 23L

  /** @param n3 node count of the newest version G3; G2 keeps ~95.7%, G1 ~91.9%
    *           of nodes (the paper's 138651/144879 and 133195/144879 ratios).
    */
  def generate(n3: Int): Versions = {
    val rnd = new Random(Seed)
    val nEntities = (n3 * 0.62).toInt
    val nAttrs = n3 - nEntities

    // interleave entities and attributes in creation order so every version
    // has both kinds; labels are fixed per id.
    val isEntity = new Array[Boolean](n3)
    val labels = new Array[String](n3)
    var e = 0; var a = 0
    for (i <- 0 until n3) {
      val takeEntity = if (e >= nEntities) false else if (a >= nAttrs) true else rnd.nextDouble() < 0.62
      if (takeEntity) { isEntity(i) = true; labels(i) = entityLabels(rnd.nextInt(entityLabels.length)); e += 1 }
      else { labels(i) = attrLabels(rnd.nextInt(attrLabels.length)); a += 1 }
    }
    val entityIds = (0 until n3).filter(isEntity).toArray
    val attrIds = (0 until n3).filterNot(isEntity).toArray

    val edges = mutable.ArrayBuffer[(Int, Int)]()
    val seen = mutable.HashSet[Long]()
    def add(u: Int, v: Int): Unit = {
      val key = (u.toLong << 32) | v.toLong
      if (u != v && !seen.contains(key)) { seen += key; edges += ((u, v)) }
    }
    // entity -> entity links, ~1.1 per entity, skewed targets
    for (u <- entityIds) {
      val k = if (rnd.nextDouble() < 0.75) 1 else 2
      for (_ <- 0 until k) {
        val t = entityIds((math.pow(rnd.nextDouble(), 2.2) * entityIds.length).toInt.min(entityIds.length - 1))
        add(u, t)
      }
    }
    // entity -> attribute links, 1..3 distinct attributes per entity
    for (u <- entityIds) {
      val k = 1 + rnd.nextInt(3)
      for (_ <- 0 until k) {
        val t = attrIds((math.pow(rnd.nextDouble(), 1.6) * attrIds.length).toInt.min(attrIds.length - 1))
        add(u, t)
      }
    }
    val g3 = LocalGraph.fromEdges(labels, edges.toSeq)

    def version(frac: Double, churn: Double, vSeed: Long): LocalGraph = {
      val nv = (n3 * frac).toInt
      val keep = (0 until nv).toArray
      val (sub, _) = g3.inducedSubgraph(keep) // ids preserved: keep is 0..nv-1
      val r = new Random(vSeed)
      val churnEdges = math.max(1, (sub.m * churn).toInt)
      sub.withRemovedEdges(churnEdges, r).withAddedEdges(churnEdges, r)
    }

    Versions(
      g1 = version(133195.0 / 144879.0, churn = 0.035, vSeed = Seed + 1),
      g2 = version(138651.0 / 144879.0, churn = 0.02, vSeed = Seed + 2),
      g3 = g3
    )
  }
}
