package repro.core

import repro.graph.LocalGraph
import scala.collection.mutable

/** Algorithm 1 for one (G1, G2, cfg), prepared once: the label matrix, the
  * candidate pairs H with their Eq.-6 pruning, the per-pair Eq.-3 update
  * [[score]] and the fixpoint loop [[converge]]. Both engines run a plan;
  * they differ only in the sweep that applies `score` to every pair.
  * Serializable so that the Spark engine can broadcast it.
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
      val ubs = h.map(k =>
        FSimLocal.upperBound(g1, g2, cfg, (k / n2).toInt, (k % n2).toInt, l1, l2, lsim))
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

  private def perPair(f: Option[(Int, Int) => Double]): Array[Double] = {
    val g = f.getOrElse((u: Int, v: Int) => lsim(l1(u))(l2(v)))
    keys.map(k => g((k / n2).toInt, (k % n2).toInt))
  }

  /** FSim⁰ per pair, and the value standing for L(u, v) in the label term. */
  private val init = perPair(cfg.initOverride)
  private val labelTerm = perPair(cfg.labelTermOverride)

  private val alpha = cfg.ub.map(_.alpha).getOrElse(0.0)

  /** weight FSim^{k-1}(x,y) used by the mapping; None if L(x,y) < θ. */
  private def weightOf(scores: Array[Double])(x: Int, y: Int): Double = {
    if (lsim(l1(x))(l2(y)) < cfg.theta) return -1.0 // ineligible sentinel
    val slot = index.getOrElse(x.toLong * n2 + y, -1)
    if (slot >= 0) scores(slot)
    else prunedUb.get(x.toLong * n2 + y) match {
      case Some(ub) => alpha * ub
      case None     => 0.0 // eligible but not maintained (cannot happen w/o ub)
    }
  }

  private def sideRaw(scores: Array[Double], s1: Array[Int], s2: Array[Int]): Double = {
    if (s1.isEmpty && s2.isEmpty) return 0.0 // term() handles the convention
    val wf = weightOf(scores) _
    val cands = mutable.ArrayBuffer[Matching.Cand]()
    var a = 0
    while (a < s1.length) {
      var b = 0
      while (b < s2.length) {
        val w = wf(s1(a), s2(b))
        if (w >= 0.0) cands += Matching.Cand(s1(a), s2(b), w)
        b += 1
      }
      a += 1
    }
    Matching.mapRaw(cfg.variant, cands.toSeq)
  }

  /** Eq. 3: FSim^k of pair `idx` from the previous scores `prev`. */
  def score(prev: Array[Double], idx: Int): Double = {
    val u = (keys(idx) / n2).toInt
    val v = (keys(idx) % n2).toInt
    val outTerm = Matching.term(cfg.variant,
      sideRaw(prev, g1.outAdj(u), g2.outAdj(v)), g1.outDeg(u), g2.outDeg(v))
    val inTerm = Matching.term(cfg.variant,
      sideRaw(prev, g1.inAdj(u), g2.inAdj(v)), g1.inDeg(u), g2.inDeg(v))
    cfg.wPlus * outTerm + cfg.wMinus * inTerm + cfg.wLabel * labelTerm(idx)
  }

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
