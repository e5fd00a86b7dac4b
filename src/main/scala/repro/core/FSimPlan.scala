package repro.core

import repro.graph.LocalGraph
import scala.collection.mutable
import FSimPlan.PairPlan

/** Algorithm 1 for one (G1, G2, cfg), prepared once: the label matrix, the
  * candidate pairs H with their Eq.-6 pruning, the compiled neighbour cells,
  * the per-pair Eq.-3 update [[score]] and the fixpoint loop [[converge]].
  * Both engines run a plan; they differ only in the sweep that applies
  * `score` to every pair. The Eq.-6 bound [[upperBound]] is the same update
  * with every eligible neighbour score set to 1. Serializable so that the
  * Spark engine can broadcast it.
  *
  * The plan stores, per pair and side (out, then in), the eligible (L ≥ θ)
  * cells of |N(u)| × |N(v)| in CSR form: pair p's out cells are
  * off(2p) until off(2p + 1), its in cells off(2p + 1) until off(2p + 2).
  * Cell c is row cellA(c) and column cellB(c) of the two sorted adjacency
  * arrays, in (a, b) order, and reads its weight from src(c): slot src(c)
  * of the score vector, or the constant consts(−1 − src(c)), which is α·UB
  * of a pruned neighbour pair. That is 12 bytes per cell.
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

  @transient private lazy val scratch: ThreadLocal[Matching.Scratch] =
    ThreadLocal.withInitial(() => new Matching.Scratch)

  /** Sorted keys u*n2+v of the candidate pairs H_c (L ≥ θ). */
  private def candidates(): Array[Long] = {
    // g2 nodes grouped by label id, and per-Σ1-label eligible g2 nodes (L >= θ)
    val byLabel2 = Array.fill(sigma2.length)(mutable.ArrayBuffer[Int]())
    for (v <- 0 until n2) byLabel2(l2(v)) += v
    val eligible2: Array[Array[Int]] = Array.tabulate(sigma1.length) { a =>
      val buf = mutable.ArrayBuffer[Int]()
      for (b <- sigma2.indices if lsim(a)(b) >= cfg.theta) buf ++= byLabel2(b)
      buf.toArray.sorted
    }
    val keys = Array.newBuilder[Long]
    for (u <- 0 until g1.n; v <- eligible2(l1(u))) keys += u.toLong * n2 + v
    keys.result() // sorted: u asc, v asc by construction
  }

  private def parallel(n: Int)(body: Int => Unit): Unit =
    java.util.stream.IntStream.range(0, n).parallel().forEach(i => body(i))

  /** CSR offsets from per-pair, per-side cell counts. */
  private def offsets(counts: Array[Int]): Array[Int] = {
    val off = new Array[Int](counts.length + 1)
    var total = 0L
    var i = 0
    while (i < counts.length) {
      total += counts(i)
      require(total <= Int.MaxValue, s"neighbour-pair plan exceeds ${Int.MaxValue} cells")
      off(i + 1) = total.toInt
      i += 1
    }
    off
  }

  /** Calls cell(a, b) for the eligible cells of s1 × s2, in (a, b) order. */
  private def eligibleCells(s1: Array[Int], s2: Array[Int])(cell: (Int, Int) => Unit): Unit = {
    var a = 0
    while (a < s1.length) {
      val row = lsim(l1(s1(a)))
      var b = 0
      while (b < s2.length) {
        if (row(l2(s2(b))) >= cfg.theta) cell(a, b)
        b += 1
      }
      a += 1
    }
  }

  private def sides(u: Int, v: Int, side: Int): (Array[Int], Array[Int]) =
    if (side == 0) (g1.outAdj(u), g2.outAdj(v)) else (g1.inAdj(u), g2.inAdj(v))

  /** The cells of every pair of H_c, with src(c) the H_c index of cell c's
    * neighbour pair: every eligible neighbour pair is itself a candidate.
    */
  private def compile(hc: Array[Long]): PairPlan = {
    val h = hc.length
    // first H_c index of each u, for the binary searches below
    val rowStart = new Array[Int](g1.n + 1)
    hc.foreach(k => rowStart((k / n2).toInt + 1) += 1)
    for (u <- 0 until g1.n) rowStart(u + 1) += rowStart(u)

    val counts = new Array[Int](2 * h)
    parallel(h) { p =>
      for (side <- 0 to 1) {
        val (s1, s2) = sides((hc(p) / n2).toInt, (hc(p) % n2).toInt, side)
        var c = 0
        eligibleCells(s1, s2)((_, _) => c += 1)
        counts(2 * p + side) = c
      }
    }
    val plan = PairPlan.allocate(hc, offsets(counts))
    parallel(h) { p =>
      for (side <- 0 to 1) {
        val (s1, s2) = sides((hc(p) / n2).toInt, (hc(p) % n2).toInt, side)
        var c = plan.off(2 * p + side)
        var lastX = -1; var lo = 0
        eligibleCells(s1, s2) { (a, b) =>
          val x = s1(a)
          if (x != lastX) { lastX = x; lo = rowStart(x) }
          // b ascends within a row, so each search starts at the last hit
          lo = java.util.Arrays.binarySearch(hc, lo, rowStart(x + 1), x.toLong * n2 + s2(b))
          plan.cellA(c) = a; plan.cellB(c) = b; plan.src(c) = lo
          c += 1
        }
      }
    }
    plan
  }

  /** Upper-bound updating (§3.4): bound every pair of H_c in parallel, keep
    * those with bound ≥ β, and compact the plan to them. A cell whose
    * neighbour pair is pruned reads the constant α·UB of that pair.
    */
  private def prune(hc: PairPlan, ub: UbConfig): PairPlan = {
    val h = hc.keys.length
    val bounds = new Array[Double](h)
    parallel(h) { p =>
      val u = (hc.keys(p) / n2).toInt; val v = (hc.keys(p) % n2).toInt
      bounds(p) = update(hc, null, p, u, v, labelTermOf(u, v))
    }
    val slot = new Array[Int](h) // kept: its new slot; pruned: −1 − its constant
    val kept = mutable.ArrayBuffer[Int]()
    val consts = mutable.ArrayBuffer[Double]()
    for (p <- 0 until h) {
      if (bounds(p) >= ub.beta) { slot(p) = kept.length; kept += p }
      else { slot(p) = -1 - consts.length; consts += ub.alpha * bounds(p) }
    }
    val keep = kept.toArray
    val plan = PairPlan.allocate(keep.map(p => hc.keys(p)),
      offsets(Array.tabulate(2 * keep.length)(i => hc.cells(2 * keep(i / 2) + i % 2))),
      consts.toArray)
    parallel(keep.length) { i =>
      val from = hc.off(2 * keep(i)); val len = hc.off(2 * keep(i) + 2) - from
      val to = plan.off(2 * i)
      System.arraycopy(hc.cellA, from, plan.cellA, to, len)
      System.arraycopy(hc.cellB, from, plan.cellB, to, len)
      var c = 0
      while (c < len) { plan.src(to + c) = slot(hc.src(from + c)); c += 1 }
    }
    plan
  }

  private val plan: PairPlan = {
    val hc = compile(candidates())
    cfg.ub.fold(hc)(prune(hc, _))
  }

  /** Sorted keys u*n2+v of the maintained candidate pairs. */
  val keys: Array[Long] = plan.keys

  /** Number of maintained candidate pairs |H|. */
  def size: Int = keys.length

  private def labelSim(u: Int, v: Int): Double = lsim(l1(u))(l2(v))

  /** The value standing for L(u, v) in the label term. */
  private def labelTermOf(u: Int, v: Int): Double =
    cfg.labelTermOverride.fold(labelSim(u, v))(_(u, v))

  private def perPair(g: (Int, Int) => Double): Array[Double] =
    keys.map(k => g((k / n2).toInt, (k % n2).toInt))

  /** FSim⁰ and the label term, per maintained pair. */
  private val init = perPair(cfg.initOverride.getOrElse(labelSim _))
  private val labelTerm = perPair(labelTermOf)

  /** One side term of Eq. 3: Mχ over cells lo until hi of `pl`, weighted
    * by the previous scores `prev` (or 1 each when `prev` is null), over Ωχ.
    */
  private def side(pl: PairPlan, prev: Array[Double], s: Matching.Scratch,
                   lo: Int, hi: Int, rows: Int, cols: Int): Double = {
    val len = hi - lo
    val w = s.weights(len)
    if (prev == null) java.util.Arrays.fill(w, 0, len, 1.0)
    else {
      var k = 0
      while (k < len) {
        val i = pl.src(lo + k)
        w(k) = if (i >= 0) prev(i) else pl.consts(-1 - i)
        k += 1
      }
    }
    val raw = Matching.mapRaw(cfg.variant, pl.cellA, pl.cellB, lo, len, w, rows, cols, s)
    Matching.term(cfg.variant, raw, rows, cols)
  }

  /** Eq. 3 for pair p = (u, v) of `pl` with label term `label`. */
  private def update(pl: PairPlan, prev: Array[Double], p: Int, u: Int, v: Int, label: Double): Double = {
    val s = scratch.get()
    cfg.wPlus * side(pl, prev, s, pl.off(2 * p), pl.off(2 * p + 1), g1.outAdj(u).length, g2.outAdj(v).length) +
      cfg.wMinus * side(pl, prev, s, pl.off(2 * p + 1), pl.off(2 * p + 2), g1.inAdj(u).length, g2.inAdj(v).length) +
      cfg.wLabel * label
  }

  /** Eq. 3: FSim^k of pair `idx` from the previous scores `prev`. */
  def score(prev: Array[Double], idx: Int): Double =
    update(plan, prev, idx, (keys(idx) / n2).toInt, (keys(idx) % n2).toInt, labelTerm(idx))

  /** Eq. 6 for a maintained pair: the bound FSim̄χ(u, v) ≥ FSimχ(u, v),
    * i.e. Eq. 3 with every eligible neighbour score at its maximum 1, so
    * each side is |Mχ|/Ωχ.
    */
  def upperBound(u: Int, v: Int): Double = {
    val idx = java.util.Arrays.binarySearch(keys, u.toLong * n2 + v)
    require(idx >= 0, s"($u, $v) is not a maintained pair")
    update(plan, null, idx, u, v, labelTerm(idx))
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
    while (u < math.min(g1.n, n2)) {
      val slot = java.util.Arrays.binarySearch(keys, u.toLong * n2 + u)
      if (slot >= 0) scores(slot) = 1.0
      u += 1
    }
  }
}

private object FSimPlan {

  /** The compiled neighbour cells of a sorted pair list; see [[FSimPlan]]. */
  final class PairPlan(val keys: Array[Long], val off: Array[Int], val cellA: Array[Int],
                       val cellB: Array[Int], val src: Array[Int], val consts: Array[Double])
      extends Serializable {
    /** Cell count of side i (2p: out, 2p + 1: in). */
    def cells(i: Int): Int = off(i + 1) - off(i)
  }

  object PairPlan {
    def allocate(keys: Array[Long], off: Array[Int], consts: Array[Double] = Array.empty): PairPlan = {
      val n = off(off.length - 1)
      new PairPlan(keys, off, new Array[Int](n), new Array[Int](n), new Array[Int](n), consts)
    }
  }
}
