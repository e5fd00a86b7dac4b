package repro.align

import repro.core._
import repro.graph.LocalGraph
import scala.collection.mutable
import scala.util.Random

/** A graph aligner: map each node u of g1 to its candidate set A_u in g2
  * (singleton for one-to-one aligners, possibly larger for class-based ones,
  * empty when the aligner abstains).
  */
trait Aligner {
  def name: String
  def align(g1: LocalGraph, g2: LocalGraph): Map[Int, Seq[Int]]
}

object Aligner {

  /** Paper's Table-9 F1: per u, P_u = 1/|A_u| and R_u = 1 if the ground truth
    * is in A_u (else 0), averaged as Σ_u 2 P_u R_u / (|V1| (P_u + R_u)).
    * Ground truth here is the identity (shared node ids across versions).
    */
  def f1Identity(g1: LocalGraph, result: Map[Int, Seq[Int]]): Double = {
    var sum = 0.0
    for (u <- 0 until g1.n) {
      val au = result.getOrElse(u, Seq.empty)
      if (au.contains(u)) {
        val p = 1.0 / au.size
        sum += 2 * p / (p + 1)
      }
    }
    sum / g1.n
  }
}

/** FSimχ aligner (the paper's §5.4 rule): A_u = argmax_v FSimχ(u, v),
  * with θ=1 and indicator labels as in the case studies.
  */
final class FSimAligner(variant: Variant) extends Aligner {
  val name = s"FSim_${variant.name}"
  def align(g1: LocalGraph, g2: LocalGraph): Map[Int, Seq[Int]] =
    FSimLocal.compute(g1, g2,
      FSimConfig(variant, wPlus = 0.4, wMinus = 0.4, theta = 1.0, epsilon = 1e-3)).argmaxByU()
}

/** k-bisimulation aligner: A_u = {v : cls(u) == cls(v)}, where cls is
  * [[KBisimulation.classes]] on the disjoint union (so classes are comparable
  * across the two graphs), per [21]/[10].
  */
final class KBisimAligner(k: Int) extends Aligner {
  val name = s"$k-bisim"
  def align(g1: LocalGraph, g2: LocalGraph): Map[Int, Seq[Int]] = {
    val cls = KBisimulation.classes(g1.disjointUnion(g2), k)
    val byClass2 = (0 until g2.n).groupBy(v => cls(g1.n + v))
    (0 until g1.n).map(u => u -> byClass2.getOrElse(cls(u), Seq.empty).toSeq).toMap
  }
}

/** Olap-like aligner (Buneman & Staworko, PVLDB'16): align within the blocks
  * of a one-round *dual* (out+in) label-signature partition — a local
  * bisimulation approximation. The converged partition is uselessly fine on
  * churned versions (every split propagates globally), so like Olap's
  * edge-label-driven blocks we stop at depth-1 neighborhood structure.
  * Simplified reimplementation of the unavailable original (DESIGN.md §3).
  */
final class OlapAligner extends Aligner {
  val name = "Olap"
  def align(g1: LocalGraph, g2: LocalGraph): Map[Int, Seq[Int]] = {
    def sig(g: LocalGraph)(u: Int): (String, Seq[String], Seq[String]) =
      (g.labels(u), g.outAdj(u).map(g.labels).toSeq.sorted, g.inAdj(u).map(g.labels).toSeq.sorted)
    val byClass2 = (0 until g2.n).groupBy(sig(g2))
    (0 until g1.n).map(u => u -> byClass2.getOrElse(sig(g1)(u), Seq.empty).toSeq).toMap
  }
}

/** GSANA-like aligner (Yasar & Çatalyürek, KDD'18): anchor a few high-degree
  * pairs by (label, degree) signature, give every node its vector of BFS
  * distances to the anchors, and align nearest same-label vectors one-to-one.
  * Simplified reimplementation (DESIGN.md §3).
  */
final class GsanaAligner extends Aligner {
  val name = "GSANA"
  private val numAnchors = 8

  def align(g1: LocalGraph, g2: LocalGraph): Map[Int, Seq[Int]] = {
    // anchors: top-degree g1 nodes matched to the same-label g2 node of
    // closest total degree
    val top1 = (0 until g1.n).sortBy(u => -(g1.outDeg(u) + g1.inDeg(u))).take(numAnchors)
    val usedAnchors = mutable.HashSet[Int]()
    val anchorPairs = top1.flatMap { u =>
      val cands = g2.nodesLabelled(g1.labels(u)).filterNot(usedAnchors.contains)
      if (cands.isEmpty) None
      else {
        val v = cands.minBy(v => math.abs((g2.outDeg(v) + g2.inDeg(v)) - (g1.outDeg(u) + g1.inDeg(u))))
        usedAnchors += v
        Some((u, v))
      }
    }
    if (anchorPairs.isEmpty) return Map.empty
    val d1 = anchorPairs.map(p => g1.distances(p._1)).toArray
    val d2 = anchorPairs.map(p => g2.distances(p._2)).toArray

    def vec(ds: Array[Array[Int]], u: Int): Array[Int] =
      ds.map(d => if (d(u) < 0) 99 else math.min(d(u), 99))

    val used = mutable.HashSet[Int]()
    // greedy one-to-one: most distinctive (rarest-label) first
    val order = (0 until g1.n).sortBy(u => g2.nodesLabelled(g1.labels(u)).length)
    order.flatMap { u =>
      val vu = vec(d1, u)
      val cands = g2.nodesLabelled(g1.labels(u)).filterNot(used.contains)
      if (cands.isEmpty) None
      else {
        val v = cands.minBy(v => vec(d2, v).zip(vu).map { case (a, b) => math.abs(a - b) }.sum)
        used += v
        Some(u -> Seq(v))
      }
    }.toMap
  }
}

/** FINAL-like aligner (Zhang & Tong, KDD'16): attributed network alignment by
  * an iterative Sylvester-style update restricted to same-label pairs,
  * s ← (1−α)·h + α·⟨neighborhood mean of s⟩, then greedy one-to-one
  * extraction. Simplified reimplementation (DESIGN.md §3).
  */
final class FinalAligner extends Aligner {
  val name = "FINAL"
  private val alpha = 0.8
  private val iters = 8
  def align(g1: LocalGraph, g2: LocalGraph): Map[Int, Seq[Int]] = {
    // candidate pairs: same label, slots in (u, v) order
    val index = new PairIndex(g1.labelId, g1.sigma.map(g2.nodesLabelled).toArray, g2.n, half = false)
    var prev = Array.fill(index.size)(1.0)
    var next = new Array[Double](index.size)
    val d1 = Array.tabulate(g1.n)(g1.undirectedNeighbors(_).length.toDouble)
    val d2 = Array.tabulate(g2.n)(g2.undirectedNeighbors(_).length.toDouble)

    for (_ <- 1 to iters) {
      // one task per row; foreachSlot walks its slots with a cursor, not a rowOf search per slot
      java.util.stream.IntStream.range(0, index.n1).parallel().forEach { u0 =>
        index.foreachSlot(index.rowStart(u0), index.rowStart(u0 + 1)) { (u, i) =>
          val v = index.col(u, i)
          val nu = g1.undirectedNeighbors(u); val nv = g2.undirectedNeighbors(v)
          val structural =
            if (nu.isEmpty || nv.isEmpty) 0.0
            else {
              // FINAL's symmetrically normalized product-graph propagation:
              // weight of (x,y) -> (u,v) is 1/sqrt(d(u)d(v)d(x)d(y)); only
              // same-label cells hold a score, and x ∈ N(u) gives d(x) ≥ 1
              var s = 0.0
              var a = 0
              while (a < nu.length) {
                val x = nu(a); val rank = index.ranks(x); var b = 0
                while (b < nv.length) {
                  val y = nv(b); if (rank(y) >= 0) s += prev(index.slot(x, y)) / math.sqrt(d1(x) * d2(y))
                  b += 1
                }
                a += 1
              }
              s / math.sqrt(nu.length.toDouble * nv.length)
            }
          next(i) = (1 - alpha) * 1.0 + alpha * structural
        }
      }
      val t = prev; prev = next; next = t
    }

    // greedy one-to-one extraction by score desc
    val order = (0 until index.size).sortBy(i => -prev(i))
    val usedU = mutable.HashSet[Int](); val usedV = mutable.HashSet[Int]()
    val out = mutable.HashMap[Int, Seq[Int]]()
    for (i <- order) {
      val u = index.rowOf(i); val v = index.col(u, i)
      if (!usedU.contains(u) && !usedV.contains(v)) {
        usedU += u; usedV += v; out(u) = Seq(v)
      }
    }
    out.toMap
  }
}

/** EWS-like aligner ("ExpandWhenStuck" percolation matching, Kazemi et al.,
  * PVLDB'15): grow a one-to-one matching from a handful of seed pairs by
  * spreading marks to label-consistent neighbor pairs and matching pairs
  * that reach r marks; when stuck, promote the best single-marked pair.
  * Needs seeds by design — we hand it `numSeeds` noisy ground-truth pairs,
  * as the original protocol does (DESIGN.md §3). With the original's r=2,
  * pairs need two independently matched neighbor pairs — degree-1 nodes
  * (RDF attribute leaves) can never accumulate two marks, which is the
  * structural weakness that keeps percolation matching below the
  * fractional-simulation aligners; `maxPromotions` bounds the
  * expand-when-stuck step.
  */
final class EwsAligner extends Aligner {
  val name = "EWS"
  private val numSeeds = 40
  private val r = 2
  private val seed = 5L
  private val wrongSeedFrac = 0.2
  private val maxPromotions = 80
  def align(g1: LocalGraph, g2: LocalGraph): Map[Int, Seq[Int]] = {
    val rnd = new Random(seed)
    val common = math.min(g1.n, g2.n)
    // seeds are noisy, as in the original's problem setting: a fraction maps
    // to a wrong same-label node
    val seeds = rnd.shuffle((0 until common).toList).take(numSeeds).map { u =>
      if (rnd.nextDouble() < wrongSeedFrac) {
        val cands = g2.nodesLabelled(g1.labels(u)).filterNot(_ == u)
        (u, if (cands.isEmpty) u else cands(rnd.nextInt(cands.size)))
      } else (u, u)
    }
    val marks = new mutable.LongMap[Int]()
    val matchedU = mutable.HashMap[Int, Int]()
    val matchedV = mutable.HashSet[Int]()
    val queue = mutable.Queue[(Int, Int)]()

    def spread(u: Int, v: Int): Unit = {
      def mark(x: Int, y: Int): Unit = {
        if (!matchedU.contains(x) && !matchedV.contains(y) && g1.labels(x) == g2.labels(y)) {
          val key = x.toLong * g2.n + y
          val c = marks.getOrElse(key, 0) + 1
          marks(key) = c
          if (c >= r) { matchedU(x) = y; matchedV += y; queue += ((x, y)) }
        }
      }
      for (x <- g1.outAdj(u); y <- g2.outAdj(v)) mark(x, y)
      for (x <- g1.inAdj(u); y <- g2.inAdj(v)) mark(x, y)
    }

    for ((u, v) <- seeds if !matchedU.contains(u) && !matchedV.contains(v)) {
      matchedU(u) = v; matchedV += v; queue += ((u, v))
    }
    // Percolate; when stuck (queue empty) promote the best single-marked pair
    // — the "expand when stuck" step of the original algorithm. Stop when no
    // marked unmatched pairs remain.
    var stuck = false
    var promotions = 0
    while (!stuck) {
      while (queue.nonEmpty) {
        val (u, v) = queue.dequeue()
        spread(u, v)
      }
      if (promotions >= maxPromotions) stuck = true
      else {
        val best = marks.iterator
          .map { case (key, c) => ((key / g2.n).toInt, (key % g2.n).toInt, c) }
          .filter { case (x, y, _) => !matchedU.contains(x) && !matchedV.contains(y) }
          .reduceOption { (a, b) =>
            // most marks first; tie-break by closest total degree
            def degDiff(t: (Int, Int, Int)) =
              math.abs((g1.outDeg(t._1) + g1.inDeg(t._1)) - (g2.outDeg(t._2) + g2.inDeg(t._2)))
            if (a._3 > b._3 || (a._3 == b._3 && degDiff(a) <= degDiff(b))) a else b
          }
        best match {
          case Some((x, y, _)) =>
            matchedU(x) = y; matchedV += y; queue += ((x, y)); promotions += 1
          case None => stuck = true
        }
      }
    }
    matchedU.map { case (u, v) => u -> Seq(v) }.toMap
  }
}
