package repro.matching

import repro.core._
import repro.graph.LocalGraph
import scala.collection.mutable

/** A subgraph-pattern matcher: given a query graph and a data graph, return
  * a (possibly partial) top-1 match φ : query node → data node. All Table-6
  * contenders implement this so the F1 harness treats them uniformly.
  */
trait Matcher {
  def name: String
  def matchQuery(query: LocalGraph, data: LocalGraph): Map[Int, Int]
}

object Matcher {

  /** Paper's Table-6 F1: P = |φ_t|/|φ|, R = |φ_t|/|Q|, F1 = 2PR/(P+R), with
    * φ_t the correctly matched nodes and truth(q) the ground-truth image.
    */
  def f1(truth: Array[Int], pred: Map[Int, Int]): Double = {
    if (pred.isEmpty) return 0.0
    val correct = pred.count { case (q, v) => truth(q) == v }
    val p = correct.toDouble / pred.size
    val r = correct.toDouble / truth.length
    if (p + r == 0.0) 0.0 else 2 * p * r / (p + r)
  }
}

/** Greedy seed-and-expand match generation driven by a node-similarity score
  * — the generation scheme the paper borrows from NAGA (§5.4) for FSimχ.
  * Concrete matchers supply score(q, v) and which data nodes may match q.
  */
abstract class SeedExpandMatcher extends Matcher {

  /** Similarity of query node q to data node v (higher = better). */
  protected def scores(query: LocalGraph, data: LocalGraph): (Int, Int) => Double

  /** May data node v match query node q? The scorer is asked only about such pairs. */
  protected def eligible(query: LocalGraph, data: LocalGraph, q: Int, v: Int): Boolean = true

  def matchQuery(query: LocalGraph, data: LocalGraph): Map[Int, Int] = {
    val s = scores(query, data)
    val assigned = mutable.HashMap[Int, Int]()
    val used = new Array[Boolean](data.n)

    def bestGlobal(q: Int): Option[(Int, Double)] = {
      var bv = -1; var bs = -1.0
      var v = 0
      while (v < data.n) {
        if (!used(v) && eligible(query, data, q, v)) {
          val sc = s(q, v)
          if (sc > bs) { bs = sc; bv = v }
        }
        v += 1
      }
      if (bv >= 0) Some((bv, bs)) else None
    }

    // Expand along query edges, best-local-candidate first; fall back to the
    // global best candidate when neighborhood expansion finds nothing
    // (tolerates missing edges/nodes, strength S1). The first round has no
    // frontier and no local candidates, so it picks the seed: the first
    // strictly largest bestGlobal(q). Without any candidate, the match is empty.
    var progress = true
    while (assigned.size < query.n && progress) {
      progress = false
      val frontier = (0 until query.n).filter(q => !assigned.contains(q) &&
        query.undirectedNeighbors(q).exists(assigned.contains))
      val pickFrom = if (frontier.nonEmpty) frontier
        else (0 until query.n).filter(q => !assigned.contains(q))
      var bq = -1; var bv = -1; var bs = -1.0
      for (q <- pickFrom) {
        // local candidates: data neighbors of already-matched query neighbors,
        // respecting edge direction
        val local = mutable.HashSet[Int]()
        for (qa <- query.outAdj(q) if assigned.contains(qa)) local ++= data.inAdj(assigned(qa))
        for (qa <- query.inAdj(q) if assigned.contains(qa)) local ++= data.outAdj(assigned(qa))
        val localEligible = local.filter(v => !used(v) && eligible(query, data, q, v))
        // rank local candidates by how many query edges to assigned nodes
        // they realize (G-Finder-style lookahead), then by similarity
        def satisfied(v: Int): Int =
          query.outAdj(q).count(qa => assigned.contains(qa) && data.hasEdge(v, assigned(qa))) +
            query.inAdj(q).count(qa => assigned.contains(qa) && data.hasEdge(assigned(qa), v))
        val choice =
          if (localEligible.nonEmpty) {
            val v = localEligible.maxBy(v => (satisfied(v), s(q, v)))
            Some((v, s(q, v) + 10.0)) // prefer local over global fallback
          } else bestGlobal(q)
        choice.foreach { case (v, sc) => if (sc > bs) { bs = sc; bq = q; bv = v } }
      }
      if (bq >= 0) { assigned(bq) = bv; used(bv) = true; progress = true }
    }
    assigned.toMap
  }
}

/** FSimχ-based matcher (the paper's proposal): score = fractional
  * χ-simulation of query node by data node, θ=0 so label-noisy nodes can
  * still be matched structurally.
  */
final class FSimMatcher(variant: Variant) extends SeedExpandMatcher {
  val name = s"FSim_${variant.name}"
  protected def scores(query: LocalGraph, data: LocalGraph): (Int, Int) => Double = {
    val res = FSimLocal.compute(query, data,
      FSimConfig(variant, wPlus = 0.4, wMinus = 0.4, theta = 0.0))
    (q, v) => res.score(q, v)
  }
}

/** NAGA-like matcher: chi-square statistical significance of the matched
  * neighbor-label vector (Dutta et al., WWW'17), only exact-label nodes
  * eligible, as NAGA requires. Simplified reimplementation — the original
  * binary is unavailable (DESIGN.md §3).
  */
final class NagaMatcher extends SeedExpandMatcher {
  val name = "NAGA"

  override protected def eligible(query: LocalGraph, data: LocalGraph, q: Int, v: Int): Boolean =
    data.labels(v) == query.labels(q)

  protected def scores(query: LocalGraph, data: LocalGraph): (Int, Int) => Double = {
    def labelFreq(l: String): Double = data.nodesLabelled(l).length match { case 0 => 1e-6; case c => c.toDouble / data.n }
    (q, v) => {
      val vNbr = data.neighborLabels(v)
      val dv = data.undirectedNeighbors(v).length.toDouble
      var chi = 0.0
      for ((l, oq) <- query.neighborLabels(q)) {
        val observed = math.min(oq, vNbr.getOrElse(l, 0)).toDouble
        val expected = math.max(1e-6, dv * labelFreq(l))
        chi += (observed - expected) * (observed - expected) / expected * (if (observed > 0) 1 else -1)
      }
      chi
    }
  }
}

/** G-Finder-like matcher: cost-based greedy lookup with label-and-structure
  * cost components allowing mismatches (Liu et al., IEEE BigData'19).
  * Simplified reimplementation (DESIGN.md §3).
  */
final class GFinderMatcher extends SeedExpandMatcher {
  val name = "G-Finder"
  protected def scores(query: LocalGraph, data: LocalGraph): (Int, Int) => Double = {
    (q, v) => {
      val labelScore = if (data.labels(v) == query.labels(q)) 1.0 else 0.0
      // structural cost: how well degrees cover the query node's requirements
      val outCover = math.min(1.0,
        if (query.outDeg(q) == 0) 1.0 else data.outDeg(v).toDouble / query.outDeg(q))
      val inCover = math.min(1.0,
        if (query.inDeg(q) == 0) 1.0 else data.inDeg(v).toDouble / query.inDeg(q))
      // neighbor label overlap
      val qN = query.neighborLabels(q); val vN = data.neighborLabels(v)
      val overlap = if (qN.isEmpty) 1.0 else qN.keysIterator.count(vN.contains).toDouble / qN.size
      0.5 * labelScore + 0.2 * (outCover + inCover) / 2 + 0.3 * overlap
    }
  }
}

/** Strong-simulation matcher: exact, so it returns an empty match when no
  * ball admits a full dual simulation (the "yes-or-no" coarseness the paper
  * motivates against). Per query node we predict the smallest matched node.
  */
final class StrongSimMatcher extends Matcher {
  val name = "StrongSim"
  def matchQuery(query: LocalGraph, data: LocalGraph): Map[Int, Int] = {
    StrongSimulation.firstMatch(query, data) match {
      case None => Map.empty
      case Some(matches) =>
        (0 until query.n).flatMap { q =>
          matches(q).headOption.map(q -> _)
        }.toMap
    }
  }
}
