package repro.core

import repro.graph.LocalGraph
import FSimPlan.maintained

/** Result of an FSimχ computation over (G1, G2), from either engine: the
  * plan's final score vector, read through the plan's [[PairIndex]], plus
  * run metadata. Lookups reject u outside 0 until n1 and v outside 0 until n2.
  */
final class FSimResult private[core] (
    index: PairIndex,
    fixed: Array[Double], // null, or per slot NaN if maintained, else the pruned score α·UB
    scores: Array[Double],
    val iterations: Int,
    /** The last sweep's max |Δ|. A value ≥ ε means the run stopped at its iteration cap without
      * converging, which greedy dp and bj can do (DESIGN.md §5); `exactIters` runs skip the ε test.
      */
    val finalDelta: Double
) extends Serializable {

  /** FSimχ(u, v); 0.0 for pairs not maintained (pruned by θ or by the upper
    * bound — the paper's default α = 0 treats those as zero).
    */
  def score(u: Int, v: Int): Double = {
    require(u >= 0 && u < index.n1 && v >= 0 && v < index.n2, s"($u, $v) is outside the node ids of G1 x G2")
    if (index.ranks(u)(v) < 0) 0.0
    else { val p = index.slot(u, v); if (maintained(fixed, p)) scores(p) else 0.0 }
  }

  /** The maintained pairs as (u, v, score), in (u, v) order: row u walks u's
    * whole eligible list, so a half plan's pair (u, v) also gives (v, u).
    */
  def pairs: Iterator[(Int, Int, Double)] =
    Iterator.range(0, index.n1).flatMap { u =>
      val (row, p) = (index.row(u), slots(u))
      Iterator.range(0, row.length).filter(i => maintained(fixed, p(i))).map(i => (u, row(i), scores(p(i))))
    }

  /** Number of maintained candidate pairs |H|. */
  def numPairs: Int = {
    var n = 0
    for (u <- 0 until index.n1) n += slots(u).count(maintained(fixed, _))
    n
  }

  /** The slots of row u's pairs, in the order of its eligible list, each looked up once. */
  private def slots(u: Int): Array[Int] = index.row(u).map(index.slot(u, _))

  /** Every maintained pair as (u, v) -> score, for small results. */
  def collectScores(): Map[(Long, Long), Double] =
    pairs.map { case (u, v, s) => (u.toLong, v.toLong) -> s }.toMap

  /** For each u, the argmax set {v : score(u,·) maximal} — the alignment
    * rule A_u of the paper's §5.4. Ties are kept with tolerance 1e-9 of the
    * first score of the current best set, in ascending v.
    */
  def argmaxByU(): Map[Int, Seq[Int]] =
    pairs.toSeq.groupBy(_._1).map { case (u, row) =>
      u -> row.tail.foldLeft((row.head._3, Vector(row.head._2))) { case ((max, best), (_, v, s)) =>
        if (s > max + 1e-9) (s, Vector(v)) else if (s >= max - 1e-9) (max, best :+ v) else (max, best)
      }._2
    }
}

/** The multithreaded in-memory engine for Algorithm 1 (the paper's own
  * implementation is multithreaded C++; this plays that role). It runs an
  * [[FSimPlan]]: each iteration is one parallel stream over the plan's
  * cost-balanced pair ranges, 16 per worker of the common pool, so that a
  * few pairs with large neighbourhoods do not leave one thread working alone.
  */
object FSimLocal {

  /** Compute FSimχ scores for all candidate pairs of (g1, g2). */
  def compute(g1: LocalGraph, g2: LocalGraph, cfg: FSimConfig): FSimResult = {
    val plan = new FSimPlan(g1, g2, cfg)
    val cuts = plan.cuts(FSimPlan.localRanges)
    plan.converge { (prev, next) =>
      FSimPlan.maxInParallel(cuts)((lo, hi) => plan.sweep(prev, next, lo, hi, lo))
    }
  }
}
