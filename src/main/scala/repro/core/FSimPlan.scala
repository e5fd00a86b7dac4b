package repro.core

import repro.graph.LocalGraph
import scala.collection.mutable

/** Algorithm 1 for one (G1, G2, cfg), prepared once: the label matrix, the
  * candidate pairs H with their Eq.-6 pruning, the per-pair Eq.-3 update
  * [[score]] and the fixpoint loop [[converge]]. Both engines run a plan;
  * they differ only in the sweep that applies `score` to every pair. The
  * Eq.-6 bound [[upperBound]] is the same update with every eligible
  * neighbour score set to 1. Serializable so that the Spark engine can
  * broadcast it.
  */
final class FSimPlan(g1: LocalGraph, g2: LocalGraph, cfg: FSimConfig) extends Serializable {
  private val n2 = g2.n

  // --- label machinery: intern labels, precompute the |Σ1| x |Σ2| L matrix
  private val sigma1 = g1.labels.distinct
  private val sigma2 = g2.labels.distinct
  private val l1 = g1.labels.map(sigma1.zipWithIndex.toMap)
  private val l2 = g2.labels.map(sigma2.zipWithIndex.toMap)
  private val lsim = Array.tabulate(sigma1.length, sigma2.length) { (a, b) =>
    cfg.labelSim(sigma1(a), sigma2(b))
  }

  /** Eq.-6 bounds of the pairs pruned by upper-bound updating. */
  private val prunedUb = new mutable.LongMap[Double]()

  /** Sorted keys u*n2+v of the maintained candidate pairs. */
  val keys: Array[Long] = {
    // g2 nodes grouped by label id, and per-Σ1-label eligible g2 nodes (L >= θ)
    val byLabel2 = Array.fill(sigma2.length)(mutable.ArrayBuffer[Int]())
    for (v <- 0 until n2) byLabel2(l2(v)) += v
    val eligible2: Array[Array[Int]] = Array.tabulate(sigma1.length) { a =>
      val buf = mutable.ArrayBuffer[Int]()
      for (b <- sigma2.indices if lsim(a)(b) >= cfg.theta) buf ++= byLabel2(b)
      buf.toArray.sorted
    }

    // --- candidate pairs H_c (paper: only pairs with L >= θ are maintained)
    val keysBuf = mutable.ArrayBuffer[Long]()
    for (u <- 0 until g1.n; v <- eligible2(l1(u))) keysBuf += u.toLong * n2 + v
    var h = keysBuf.toArray // sorted: u asc, v asc by construction

    // --- upper-bound updating: compute Eq.-6 bounds, split H into kept/pruned
    cfg.ub.foreach { u =>
      val ubs = h.map(k => upperBound((k / n2).toInt, (k % n2).toInt))
      val keep = mutable.ArrayBuffer[Long]()
      var i = 0
      while (i < h.length) {
        if (ubs(i) >= u.beta) keep += h(i) else prunedUb(h(i)) = ubs(i)
        i += 1
      }
      h = keep.toArray
    }
    h
  }

  /** Number of maintained candidate pairs |H|. */
  def size: Int = keys.length

  /** Slot of each maintained pair's key in `keys`. */
  private val index = {
    val index = new mutable.LongMap[Int](size * 2)
    var i = 0
    while (i < size) { index(keys(i)) = i; i += 1 }
    index
  }

  private def labelSim(u: Int, v: Int): Double = lsim(l1(u))(l2(v))

  /** The value standing for L(u, v) in the label term. */
  private def labelTermOf(u: Int, v: Int): Double =
    cfg.labelTermOverride.fold(labelSim(u, v))(_(u, v))

  private def perPair(g: (Int, Int) => Double): Array[Double] =
    keys.map(k => g((k / n2).toInt, (k % n2).toInt))

  /** FSim⁰ and the label term, per maintained pair. */
  private val init = perPair(cfg.initOverride.getOrElse(labelSim _))
  private val labelTerm = perPair(labelTermOf)

  private val alpha = cfg.ub.map(_.alpha).getOrElse(0.0)

  /** FSim^{k-1}(x, y) of an eligible neighbour pair, as read by the update. */
  private def prevScore(scores: Array[Double])(x: Int, y: Int): Double = {
    val slot = index.getOrElse(x.toLong * n2 + y, -1)
    if (slot >= 0) scores(slot)
    else prunedUb.get(x.toLong * n2 + y) match {
      case Some(ub) => alpha * ub
      case None     => 0.0 // eligible but not maintained (cannot happen w/o ub)
    }
  }

  /** One side term of Eq. 3: Mχ over the eligible (L ≥ θ) pairs of
    * s1 × s2 weighted by `weight`, normalized by Ωχ.
    */
  private def side(weight: (Int, Int) => Double, s1: Array[Int], s2: Array[Int]): Double = {
    val cands = mutable.ArrayBuffer[Matching.Cand]()
    var a = 0
    while (a < s1.length) {
      var b = 0
      while (b < s2.length) {
        if (labelSim(s1(a), s2(b)) >= cfg.theta)
          cands += Matching.Cand(s1(a), s2(b), weight(s1(a), s2(b)))
        b += 1
      }
      a += 1
    }
    Matching.term(cfg.variant, Matching.mapRaw(cfg.variant, cands), s1.length, s2.length)
  }

  /** Eq. 3 for (u, v) with neighbour weights `weight` and label term `label`. */
  private def update(weight: (Int, Int) => Double, u: Int, v: Int, label: Double): Double =
    cfg.wPlus * side(weight, g1.outAdj(u), g2.outAdj(v)) +
      cfg.wMinus * side(weight, g1.inAdj(u), g2.inAdj(v)) + cfg.wLabel * label

  /** Eq. 3: FSim^k of pair `idx` from the previous scores `prev`. */
  def score(prev: Array[Double], idx: Int): Double =
    update(prevScore(prev), (keys(idx) / n2).toInt, (keys(idx) % n2).toInt, labelTerm(idx))

  /** Eq. 6: the bound FSim̄χ(u, v) ≥ FSimχ(u, v), i.e. Eq. 3 with every
    * eligible neighbour score at its maximum 1, so each side is |Mχ|/Ωχ.
    */
  def upperBound(u: Int, v: Int): Double = update((_, _) => 1.0, u, v, labelTermOf(u, v))

  /** The fixpoint loop of Algorithm 1, from FSim⁰ until max |Δ| < ε (or for
    * exactly `exactIters` sweeps), capped by Corollary 1. `sweep(prev, next)`
    * must set next(i) = score(prev, i) for every pair i.
    */
  def converge(sweep: (Array[Double], Array[Double]) => Unit): FSimResult = {
    var prev = init.clone()
    var next = new Array[Double](size)
    if (cfg.pinDiagonal) pin(prev)

    val maxIters = cfg.exactIters.getOrElse(math.min(cfg.maxIters, cfg.iterationBound + 1))
    var iter = 0
    var delta = Double.MaxValue
    var done = false
    while (!done && iter < maxIters) {
      sweep(prev, next)
      if (cfg.pinDiagonal) pin(next)
      delta = 0.0
      var j = 0
      while (j < size) {
        val d = math.abs(next(j) - prev(j))
        if (d > delta) delta = d
        j += 1
      }
      val t = prev; prev = next; next = t
      iter += 1
      if (cfg.exactIters.isEmpty && delta < cfg.epsilon) done = true
    }

    new FSimResult(n2, keys, prev, iter, delta)
  }

  private def pin(scores: Array[Double]): Unit = {
    var u = 0
    val n1 = if (keys.isEmpty) 0 else (keys.last / n2).toInt + 1
    while (u < math.min(n1, n2)) {
      index.get(u.toLong * n2 + u).foreach(slot => scores(slot) = 1.0)
      u += 1
    }
  }
}
