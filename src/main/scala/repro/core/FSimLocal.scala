package repro.core

import repro.graph.LocalGraph

/** Result of an FSimχ computation over (G1, G2), from either engine: the
  * converged scores of every maintained candidate pair, plus run metadata.
  */
final class FSimResult(
    val n2: Int,
    keys: Array[Long], // sorted keys u*n2+v of maintained pairs
    scores: Array[Double],
    val iterations: Int,
    val finalDelta: Double
) extends Serializable {

  /** Number of maintained candidate pairs |H|. */
  def numPairs: Int = keys.length

  /** FSimχ(u, v); 0.0 for pairs not maintained (pruned by θ or by the upper
    * bound — the paper's default α = 0 treats those as zero). Rejects u < 0
    * and v outside 0 until n2, whose keys would alias other pairs.
    */
  def score(u: Int, v: Int): Double = {
    require(u >= 0 && v >= 0 && v < n2, s"($u, $v) is outside the node ids of G1 x G2")
    val i = java.util.Arrays.binarySearch(keys, u.toLong * n2 + v)
    if (i >= 0) scores(i) else 0.0
  }

  /** Iterate maintained pairs as (u, v, score). */
  def pairs: Iterator[(Int, Int, Double)] =
    keys.iterator.zip(scores.iterator).map { case (k, s) =>
      ((k / n2).toInt, (k % n2).toInt, s)
    }

  /** Every maintained pair as (u, v) -> score, for small results. */
  def collectScores(): Map[(Long, Long), Double] =
    pairs.map { case (u, v, s) => (u.toLong, v.toLong) -> s }.toMap

  /** For each u, the argmax set {v : score(u,·) maximal} — the alignment
    * rule A_u of the paper's §5.4. Ties are kept with tolerance 1e-9 of the
    * first score of the current best set, in ascending v. One scan over the
    * u-sorted keys emits each u's set when it leaves u's row.
    */
  def argmaxByU(): Map[Int, Seq[Int]] = {
    val out = Map.newBuilder[Int, Seq[Int]]
    val best = List.newBuilder[Int]
    var max = 0.0
    for (i <- keys.indices) {
      val u = (keys(i) / n2).toInt; val v = (keys(i) % n2).toInt; val s = scores(i)
      if (i == 0 || keys(i - 1) / n2 != u || s > max + 1e-9) { max = s; best.clear(); best += v }
      else if (s >= max - 1e-9) best += v
      if (i + 1 == keys.length || keys(i + 1) / n2 != u) out += u -> best.result()
    }
    out.result()
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
      FSimPlan.inParallel(cuts)((lo, hi) => plan.sweep(prev, next, lo, hi, lo))
    }
  }
}
