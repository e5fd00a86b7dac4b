package repro.core

import repro.graph.LocalGraph
import scala.collection.mutable
import FSimPlan.{MaxIters, PairPlan, inParallel, localRanges}

/** Algorithm 1 for one (G1, G2, cfg), prepared once: the label matrix, the
  * candidate pairs H with their Eq.-6 pruning, the compiled neighbour cells,
  * the Eq.-3 update over a pair range [[sweep]] and the fixpoint loop
  * [[converge]]. Both engines run a plan and cut each iteration into the
  * cost-balanced pair ranges of [[cuts]]; they differ only in where the
  * ranges run. The Eq.-6 bound [[upperBound]] is the same update with every
  * eligible neighbour score set to 1. Serializable so that the Spark engine
  * can broadcast it.
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

  /** Sorted keys u*n2+v of the candidate pairs H_c (L ≥ θ), and the index
    * of each u's first key (g1.n + 1 entries).
    */
  private def candidates(): (Array[Long], Array[Int]) = {
    // g2 nodes grouped by label id, and per-Σ1-label eligible g2 nodes (L >= θ)
    val byLabel2 = Array.fill(sigma2.length)(mutable.ArrayBuffer[Int]())
    for (v <- 0 until n2) byLabel2(l2(v)) += v
    val eligible2: Array[Array[Int]] = Array.tabulate(sigma1.length) { a =>
      val buf = mutable.ArrayBuffer[Int]()
      for (b <- sigma2.indices if lsim(a)(b) >= cfg.theta) buf ++= byLabel2(b)
      buf.toArray.sorted
    }
    val rowStart = offsets(l1.map(eligible2(_).length))
    val keys = new Array[Long](rowStart(g1.n))
    parallel(g1.n) { u =>
      val vs = eligible2(l1(u))
      var i = 0
      while (i < vs.length) { keys(rowStart(u) + i) = u.toLong * n2 + vs(i); i += 1 }
    }
    (keys, rowStart) // sorted: u asc, v asc by construction
  }

  private def parallel(n: Int)(body: Int => Unit): Unit =
    java.util.stream.IntStream.range(0, n).parallel().forEach(i => body(i))

  /** CSR offsets from counts (of pairs per u, or of cells per pair side). */
  private def offsets(counts: Array[Int]): Array[Int] = {
    val off = new Array[Int](counts.length + 1)
    var total = 0L
    var i = 0
    while (i < counts.length) {
      total += counts(i)
      require(total <= Int.MaxValue, s"plan exceeds ${Int.MaxValue} pairs or cells")
      off(i + 1) = total.toInt
      i += 1
    }
    off
  }

  /** The eligible cells of s1 × s2, in (a, b) order: counted when `pl` is
    * null, else also written to `pl` from cell `at`, with src the H_c index
    * of the cell's neighbour pair (every eligible neighbour pair is itself a
    * candidate). Returns the count.
    */
  private def sideCells(s1: Array[Int], s2: Array[Int], hc: Array[Long], rowStart: Array[Int],
                        pl: PairPlan, at: Int): Int = {
    var c = at
    var a = 0
    while (a < s1.length) {
      val x = s1(a)
      val row = lsim(l1(x))
      var lo = rowStart(x)
      var b = 0
      while (b < s2.length) {
        if (row(l2(s2(b))) >= cfg.theta) {
          if (pl != null) {
            // b ascends within a row, so each search starts at the last hit
            lo = java.util.Arrays.binarySearch(hc, lo, rowStart(x + 1), x.toLong * n2 + s2(b))
            pl.cellA(c) = a; pl.cellB(c) = b; pl.src(c) = lo
          }
          c += 1
        }
        b += 1
      }
      a += 1
    }
    c - at
  }

  /** The cells and label terms of every pair of H_c. */
  private def compile(hc: Array[Long], rowStart: Array[Int]): PairPlan = {
    val h = hc.length
    val counts = new Array[Int](2 * h)
    parallel(h) { p =>
      val u = (hc(p) / n2).toInt; val v = (hc(p) % n2).toInt
      counts(2 * p) = sideCells(g1.outAdj(u), g2.outAdj(v), hc, rowStart, null, 0)
      counts(2 * p + 1) = sideCells(g1.inAdj(u), g2.inAdj(v), hc, rowStart, null, 0)
    }
    val plan = PairPlan.allocate(hc, offsets(counts))
    inParallel(plan.cuts(localRanges)) { (lo, hi) =>
      var p = lo
      while (p < hi) {
        val u = (hc(p) / n2).toInt; val v = (hc(p) % n2).toInt
        sideCells(g1.outAdj(u), g2.outAdj(v), hc, rowStart, plan, plan.off(2 * p))
        sideCells(g1.inAdj(u), g2.inAdj(v), hc, rowStart, plan, plan.off(2 * p + 1))
        plan.label(p) = labelTerm(u, v)
        p += 1
      }
    }
    plan
  }

  /** Upper-bound updating (§3.4): bound every pair of H_c in parallel, keep
    * those with bound ≥ β, and compact the plan to them. A cell whose
    * neighbour pair is pruned reads the constant α·UB of that pair.
    */
  private def prune(hc: PairPlan, ub: UbConfig): PairPlan = {
    val h = hc.size
    val bounds = new Array[Double](h)
    inParallel(hc.cuts(localRanges))((lo, hi) => update(hc, null, lo, hi, bounds, lo))
    val slot = new Array[Int](h) // kept: its new slot; pruned: −1 − its constant
    var kept = 0
    var p = 0
    while (p < h) {
      if (bounds(p) >= ub.beta) { slot(p) = kept; kept += 1 }
      else slot(p) = -1 - (p - kept)
      p += 1
    }
    val keep = new Array[Int](kept)
    val keys = new Array[Long](kept)
    val counts = new Array[Int](2 * kept)
    val consts = new Array[Double](h - kept)
    p = 0
    while (p < h) {
      val s = slot(p)
      if (s < 0) consts(-1 - s) = ub.alpha * bounds(p)
      else {
        keep(s) = p; keys(s) = hc.keys(p)
        counts(2 * s) = hc.cells(2 * p); counts(2 * s + 1) = hc.cells(2 * p + 1)
      }
      p += 1
    }
    val plan = PairPlan.allocate(keys, offsets(counts), consts)
    inParallel(plan.cuts(localRanges)) { (lo, hi) =>
      var i = lo
      while (i < hi) {
        val q = keep(i)
        plan.label(i) = hc.label(q)
        val from = hc.off(2 * q); val len = hc.off(2 * q + 2) - from
        val to = plan.off(2 * i)
        System.arraycopy(hc.cellA, from, plan.cellA, to, len)
        System.arraycopy(hc.cellB, from, plan.cellB, to, len)
        var c = 0
        while (c < len) { plan.src(to + c) = slot(hc.src(from + c)); c += 1 }
        i += 1
      }
    }
    plan
  }

  private val plan: PairPlan = {
    val (hc, rowStart) = candidates()
    val all = compile(hc, rowStart)
    cfg.ub.fold(all)(prune(all, _))
  }

  /** Sorted keys u*n2+v of the maintained candidate pairs. */
  val keys: Array[Long] = plan.keys

  /** Number of maintained candidate pairs |H|. */
  def size: Int = keys.length

  private def labelSim(u: Int, v: Int): Double = lsim(l1(u))(l2(v))

  /** The (1 − w⁺ − w⁻) term's L(u, v) and FSim⁰(u, v): L for the paper's
    * variants; 0 and the identity for §4.3 SimRank, which also pins the
    * diagonal; 1 and min(d)/max(d) for §4.3 RoleSim, with d the out-degree,
    * i.e. the undirected degree on [[SimRankRoleSim.undirectedView]].
    */
  private def labelTerm(u: Int, v: Int): Double = cfg.variant match {
    case Variant.SimRankCfg => 0.0
    case Variant.RoleSimCfg => 1.0
    case _ => labelSim(u, v)
  }

  private def init(u: Int, v: Int): Double = cfg.variant match {
    case Variant.SimRankCfg => if (u == v) 1.0 else 0.0
    case Variant.RoleSimCfg =>
      val (du, dv) = (g1.outAdj(u).length, g2.outAdj(v).length)
      if (math.max(du, dv) == 0) 1.0 else math.min(du, dv).toDouble / math.max(du, dv)
    case _ => labelSim(u, v)
  }

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

  /** Eq. 3 for pairs lo until hi of `pl` from the previous scores `prev`
    * (null: every neighbour score 1, the Eq.-6 bound); pair lo + i goes to
    * out(at + i). One scratch serves the whole range.
    */
  private def update(pl: PairPlan, prev: Array[Double], lo: Int, hi: Int,
                     out: Array[Double], at: Int): Unit = {
    val s = scratch.get()
    var p = lo
    while (p < hi) {
      val u = (pl.keys(p) / n2).toInt; val v = (pl.keys(p) % n2).toInt
      out(at + p - lo) =
        cfg.wPlus * side(pl, prev, s, pl.off(2 * p), pl.off(2 * p + 1), g1.outAdj(u).length, g2.outAdj(v).length) +
          cfg.wMinus * side(pl, prev, s, pl.off(2 * p + 1), pl.off(2 * p + 2), g1.inAdj(u).length, g2.inAdj(v).length) +
          cfg.wLabel * pl.label(p)
      p += 1
    }
  }

  /** Eq. 3 over the pair range lo until hi: sets next(at + i) to FSim^k of
    * pair lo + i from the previous scores `prev`. Ranges are independent, so
    * any split of 0 until size gives the same scores.
    */
  def sweep(prev: Array[Double], next: Array[Double], lo: Int, hi: Int, at: Int): Unit =
    update(plan, prev, lo, hi, next, at)

  /** k + 1 boundaries 0 = c(0) ≤ … ≤ c(k) = size that cut the pairs into k
    * ranges of near-equal sweep cost. A pair costs its neighbour cells plus
    * a fixed per-pair overhead ([[cost]]); no range costs more than
    * ⌈total / k⌉ plus the cost of one of its pairs.
    */
  def cuts(k: Int): Array[Int] = plan.cuts(k)

  /** The sweep cost of pair p that [[cuts]] balances. */
  private[core] def cost(p: Int): Long = plan.cost(p)

  /** Eq. 6 for a maintained pair: the bound FSim̄χ(u, v) ≥ FSimχ(u, v),
    * i.e. Eq. 3 with every eligible neighbour score at its maximum 1, so
    * each side is |Mχ|/Ωχ.
    */
  def upperBound(u: Int, v: Int): Double = {
    val idx = java.util.Arrays.binarySearch(keys, u.toLong * n2 + v)
    require(idx >= 0, s"($u, $v) is not a maintained pair")
    val out = new Array[Double](1)
    update(plan, null, idx, idx + 1, out, 0)
    out(0)
  }

  /** The fixpoint loop of Algorithm 1, from FSim⁰ until max |Δ| < ε (or for
    * exactly `exactIters` sweeps), capped by Corollary 1 and [[MaxIters]].
    * `sweep(prev, next)` must set next to FSim^k from prev, e.g. by running
    * [[sweep]] over the ranges of some [[cuts]].
    */
  def converge(sweep: (Array[Double], Array[Double]) => Unit): FSimResult = {
    val fsim0 = new Array[Double](size)
    parallel(size)(p => fsim0(p) = init((keys(p) / n2).toInt, (keys(p) % n2).toInt))
    var prev = fsim0
    var next = new Array[Double](size)
    val simRank = cfg.variant == Variant.SimRankCfg
    if (simRank) pin(prev)

    val cap = cfg.exactIters.getOrElse(math.min(MaxIters, cfg.iterationBound.toLong + 1).toInt)
    var iter = 0
    var delta = Double.MaxValue
    var done = false
    while (!done && iter < cap) {
      sweep(prev, next)
      if (simRank) pin(next)
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

  /** Iteration cap of a run to ε (Corollary 1 bounds the need). */
  final val MaxIters = 100

  /** Sweep cost of one pair beyond its cells, in cells: the two side terms,
    * their Ωχ and the key decoding. Used only to balance ranges.
    */
  final val PairCost = 2

  /** Ranges of a local parallel sweep: 16 per worker of the common pool, so
    * that work stealing evens out what the cost model misses. A constant.
    */
  def localRanges: Int = 16 * java.util.concurrent.ForkJoinPool.getCommonPoolParallelism

  /** Runs body(c(i), c(i + 1)) for every range of the cuts `c`, in parallel. */
  def inParallel(c: Array[Int])(body: (Int, Int) => Unit): Unit =
    java.util.stream.IntStream.range(0, c.length - 1).parallel().forEach(i => body(c(i), c(i + 1)))

  /** The compiled neighbour cells and label terms of a sorted pair list;
    * see [[FSimPlan]].
    */
  final class PairPlan(val keys: Array[Long], val label: Array[Double], val off: Array[Int],
                       val cellA: Array[Int], val cellB: Array[Int], val src: Array[Int],
                       val consts: Array[Double])
      extends Serializable {
    def size: Int = keys.length

    /** Cell count of side i (2p: out, 2p + 1: in). */
    def cells(i: Int): Int = off(i + 1) - off(i)

    def cost(p: Int): Long = off(2 * p + 2) - off(2 * p) + PairCost

    /** Σ cost of pairs 0 until p, read from the CSR offsets. */
    private def costBefore(p: Int): Long = off(2 * p).toLong + PairCost.toLong * p

    /** See [[FSimPlan.cuts]]: c(j) is the first pair whose cost prefix
      * reaches ⌈j · total / k⌉.
      */
    def cuts(k: Int): Array[Int] = {
      require(k >= 1, s"need k >= 1 ranges, got $k")
      val total = costBefore(size)
      val c = new Array[Int](k + 1)
      var j = 1
      while (j <= k) {
        val target = (j * total + k - 1) / k
        var lo = c(j - 1); var hi = size
        while (lo < hi) {
          val mid = (lo + hi) >>> 1
          if (costBefore(mid) >= target) hi = mid else lo = mid + 1
        }
        c(j) = lo
        j += 1
      }
      c
    }
  }

  object PairPlan {
    def allocate(keys: Array[Long], off: Array[Int], consts: Array[Double] = Array.empty): PairPlan = {
      val n = off(off.length - 1)
      new PairPlan(keys, new Array[Double](keys.length), off,
        new Array[Int](n), new Array[Int](n), new Array[Int](n), consts)
    }
  }
}
