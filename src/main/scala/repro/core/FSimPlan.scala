package repro.core

import java.util.stream.IntStream
import repro.graph.LocalGraph
import FSimPlan.{MaxIters, PairCost, inParallel, localRanges, maintained, prefixSum}

/** Algorithm 1 for one (G1, G2, cfg), prepared once in four phases: the
  * label term per label pair and H_c ([[candidates]]), the neighbour cells
  * ([[countCells]], [[fillCells]], read off G2's [[ClassLists]] without
  * testing ineligible cells) and the Eq.-6 pruning ([[bounds]]).
  * [[converge]] runs the fixpoint from FSim⁰ ([[fsim0]]) by the Eq.-3
  * update over a pair range ([[sweep]]). Both engines run a plan and cut
  * each iteration into the cost-balanced pair ranges of [[cuts]]; they
  * differ only in where the ranges run. The Eq.-6 bound FSim̄χ(u, v) ≥
  * FSimχ(u, v) is the same update with every eligible neighbour score set
  * to 1 ([[sweep]] with no previous scores), so each side is |Mχ|/Ωχ.
  * Serializable so that the Spark engine can broadcast it.
  *
  * The plan stores, per pair of H_c and side (out, then in), the eligible
  * (L ≥ θ) cells of |N(u)| × |N(v)| in CSR form: pair p's out cells are
  * off(2p) until off(2p + 1), its in cells off(2p + 1) until off(2p + 2).
  * Cell c is row cellA(c) and column cellB(c) of the two sorted adjacency
  * arrays, in (a, b) order, and reads its weight from slot src(c) of the
  * score vector. That is 12 bytes per cell. Where N⁺(u) = N⁻(u) and N⁺(v) =
  * N⁻(v) (both [[LocalGraph.mutual]], as on a bidirected graph), the in cells
  * would repeat the out cells, so that shared in side's range is empty and the
  * sweep reads the out term for both sides: the same value, bit for bit.
  *
  * The score vector has one slot per pair of H_c, laid out by the plan's
  * [[PairIndex]]. With upper-bound updating (§3.4), a pair whose bound is
  * below β is not maintained: its slot holds the fixed score α·UB from FSim⁰
  * on, every sweep writes that score again, and its neighbours read it like
  * any other slot. The [[FSimResult]] of [[converge]] skips the pruned pairs.
  *
  * On G1 = G2 (`g1 eq g2`), b, bj and RoleSim keep a half plan, the pairs
  * u ≤ v (P3), exact bit for bit (DESIGN.md §6). SimRank, which adds its
  * cells in (a, b) order and so is symmetric only to ~1e-16, keeps the full plan.
  */
@SerialVersionUID(1L)
final class FSimPlan(g1: LocalGraph, g2: LocalGraph, cfg: FSimConfig) extends Serializable {

  // Phase 1 (the label matrix, G2's label ids, H_c), then phases 2, 3 and 4; phase 5, fsim0, runs
  // in converge. term(l1(u))(l2(v)) is pair (u, v)'s label term, G1's label ids l1 kept by the index.
  private val term: Array[Array[Double]] = {
    val s1 = g1.sigma.toArray; val s2 = g2.sigma.toArray
    val t = Array.ofDim[Double](s1.length, s2.length)
    for (a <- s1.indices; b <- s2.indices) t(a)(b) = cfg.labelSim(s1(a), s2(b))
    t
  }
  private val l2: Array[Int] = g2.labelId
  private[core] val index: PairIndex = candidates()
  // per node, N⁺ = N⁻: a pair of two such nodes stores and sweeps its out cells only
  private val mutual1 = g1.mutual
  private val mutual2 = g2.mutual
  @transient private[this] var lists = new ClassLists(index, g2) // phases 2 and 3 only: then dropped
  private val off: Array[Int] = countCells(lists)
  private val cellA, cellB, src = new Array[Int](off(2 * size)) // three arrays, written by fillCells
  fillCells(lists)
  lists = null
  // G2's |N⁺(v)| and |N⁻(v)|: bounds runs sweep, which reads them, so they come before fixed
  private val out2 = g2.outDegrees
  private val in2 = g2.inDegrees
  private val fixed: Array[Double] = bounds()

  @transient private lazy val scratch = ThreadLocal.withInitial(() => new Matching.Scratch)
  @transient private lazy val ones = Array.fill(size)(1.0) // the Eq.-6 bound's neighbour scores

  /** Number of candidate pairs |H_c|, the length of the score vector. */
  def size: Int = index.size

  /** Phase 2 for row u and one side: off(2p + side), for each pair p = (u, v) of lo until hi, is
    * the number of eligible cells of s1 × N(v), N(v) from `adj2`: |N(v)| per neighbour x of a full
    * class, plus, per class that v lists, its list's length times the tally in `mult` of s1's x.
    */
  private def countRow(u: Int, lo: Int, hi: Int, s1: Array[Int], adj2: Array[Array[Int]], lists: ClassLists,
                       nb: ClassLists#Side, mult: Array[Int], off: Array[Int], side: Int): Unit = {
    var full = 0
    for (x <- s1) { val k = lists.classOf(x); if (k < 0) full += 1 else mult(k) += 1 }
    var p = lo
    while (p < hi) {
      val v = index.col(u, p)
      off(2 * p + side) = full * adj2(v).length + (if (full < s1.length) nb.count(v, mult) else 0)
      p += 1
    }
    for (x <- s1) { val k = lists.classOf(x); if (k >= 0) mult(k) = 0 }
  }

  /** Phase 3 for one pair side: cells from `at` of cellA, cellB and src (the neighbour pair's slot)
    * get the eligible cells of s1 × s2, s2 G2 node v's neighbours, in (a, b) order, and none is
    * tested. A neighbour x of a full class pairs with every b; one of a class that is not full with
    * the b that `nb` lists for its class at v, put in `range` by [[ClassLists.Side.scatter]]. A slot
    * is base(x) plus y's rank; only a half plan's mirrored cells (y < x) ask [[PairIndex.slot]].
    */
  private def fillSide(s1: Array[Int], s2: Array[Int], lists: ClassLists, nb: ClassLists#Side, v: Int,
                       range: Array[Int], at: Int): Unit = {
    if (nb != null) nb.scatter(v, range, on = true)
    var c = at
    var a = 0
    while (a < s1.length) {
      val x = s1(a); val k = lists.classOf(x); val rank = index.ranks(x); val base = index.base(x)
      var i = if (k < 0) 0 else range(2 * k); val last = if (k < 0) s2.length else range(2 * k + 1)
      while (i < last) {
        val b = if (k < 0) i else nb.position(i); val y = s2(b)
        src(c) = if (index.half && y < x) index.slot(x, y) else base + rank(y); cellA(c) = a; cellB(c) = b
        c += 1; i += 1
      }
      a += 1
    }
    if (nb != null) nb.scatter(v, range, on = false)
  }

  /** Phase 1: the [[PairIndex]] of H_c's L ≥ θ pairs (half on G1 = G2 for b, bj and RoleSim), read
    * from the label matrix `term`, which it then turns into the label term: L, or 0 for §4.3
    * SimRank, 1 for RoleSim. Σ1 labels with the same eligible Σ2 labels (one bit set, the key)
    * share one eligible row, merged from those labels' nodes; all of V2 if every label is eligible.
    */
  private def candidates(): PairIndex = {
    val rows = scala.collection.mutable.HashMap.empty[java.util.BitSet, Array[Int]]
    val eligible2 = term.map { l =>
      val labels = new java.util.BitSet(l.length)
      for (b <- l.indices if l(b) >= cfg.theta) labels.set(b)
      rows.getOrElseUpdate(labels, if (labels.cardinality == l.length) Array.range(0, g2.n) else {
        val row = labels.stream.flatMap(b => java.util.Arrays.stream(g2.nodesLabelled(g2.sigma(b)))).toArray
        java.util.Arrays.sort(row); row
      })
    }
    if (cfg.variant == Variant.SimRankCfg || cfg.variant == Variant.RoleSimCfg)
      term.foreach(java.util.Arrays.fill(_, if (cfg.variant == Variant.RoleSimCfg) 1.0 else 0.0))
    new PairIndex(g1.labelId, eligible2, g2.n,
      half = (g1 eq g2) && Seq(Variant.B, Variant.BJ, Variant.RoleSimCfg).contains(cfg.variant))
  }

  /** Phase 2: the CSR offsets of the cells per pair side, counted in parallel row by row; 0 for a shared in side. */
  private def countCells(lists: ClassLists): Array[Int] = {
    val off = new Array[Int](2 * size + 1)
    inParallel(index.rowStart) { (lo, hi) =>
      if (lo < hi) {
        val u = index.rowOf(lo); val mult = lists.scratch.get()
        countRow(u, lo, hi, g1.outAdj(u), g2.outAdj, lists, lists.out, mult, off, 1)
        countRow(u, lo, hi, g1.inAdj(u), g2.inAdj, lists, lists.in, mult, off, 2)
        if (mutual1(u)) for (p <- lo until hi if mutual2(index.col(u, p))) off(2 * p + 2) = 0
      }
    }
    prefixSum(off)
  }

  /** Phase 3: every pair side's cells but a shared in side's, written from its offset, over the ranges of [[cuts]]. */
  private def fillCells(lists: ClassLists): Unit =
    inParallel(cuts(localRanges)) { (lo, hi) =>
      val range = lists.scratch.get()
      index.foreachSlot(lo, hi) { (u, p) =>
        val v = index.col(u, p)
        fillSide(g1.outAdj(u), g2.outAdj(v), lists, lists.out, v, range, off(2 * p))
        if (!(mutual1(u) && mutual2(v))) fillSide(g1.inAdj(u), g2.inAdj(v), lists, lists.in, v, range, off(2 * p + 1))
      }
    }

  /** Phase 4, upper-bound updating (§3.4), null when off: per pair, NaN if its Eq.-6 bound is
    * ≥ β (maintained), else its fixed score α·UB; one parallel pass over the ranges of [[cuts]].
    */
  private def bounds(): Array[Double] = cfg.ub.map { ub =>
    val bounds = new Array[Double](size)
    inParallel(cuts(localRanges)) { (lo, hi) =>
      sweep(null, bounds, lo, hi, lo)
      for (p <- lo until hi) bounds(p) = if (bounds(p) >= ub.beta) Double.NaN else ub.alpha * bounds(p)
    }
    bounds
  }.orNull

  /** Phase 5, run by each [[converge]], whose loop overwrites it: FSim⁰ per pair. Its fixed
    * score if pruned; for §4.3 RoleSim min(d)/max(d) of the out-degrees (undirected on §4.3's
    * view), or 1 when both are 0; else the label term: L(u, v) for the paper's variants, 0 for
    * §4.3 SimRank, whose maintained diagonal is pinned to 1.
    */
  private def fsim0(): Array[Double] = {
    val scores = new Array[Double](size)
    inParallel(cuts(localRanges))((lo, hi) => index.foreachSlot(lo, hi) { (u, p) =>
      scores(p) =
        if (!maintained(fixed, p)) fixed(p)
        else if (cfg.variant == Variant.SimRankCfg && index.col(u, p) == u) 1.0
        else if (cfg.variant != Variant.RoleSimCfg) term(index.l1(u))(l2(index.col(u, p)))
        else {
          val (du, dv) = (g1.outAdj(u).length, g2.outAdj(index.col(u, p)).length)
          if (math.max(du, dv) == 0) 1.0 else math.min(du, dv).toDouble / math.max(du, dv)
        }
    })
    scores
  }

  /** One side term of Eq. 3: Mχ over cells lo until hi, weighted by the scores `w`, over Ωχ. */
  private def side(w: Array[Double], s: Matching.Scratch, lo: Int, hi: Int, rows: Int, cols: Int): Double =
    Matching.term(cfg.variant, Matching.mapRaw(cfg.variant, cellA, cellB, lo, hi - lo, w, src, rows, cols, s),
      rows, cols)

  /** Eq. 3 over the pair range lo until hi: sets next(at + i) to FSim^k of pair lo + i from the
    * previous scores `prev` (1 on §4.3 SimRank's diagonal), or to its fixed score if pruned, and
    * returns the range's max |Δ|. Ranges are independent, so any split of 0 until size gives the
    * same scores. With `prev` null, sets every pair's Eq.-6 bound instead (every neighbour score 1,
    * read from [[ones]]) and returns 0. One scratch serves the range, walked row by row: u's
    * values are read once per row. A pair of two nodes with N⁺ = N⁻ weights its out term twice.
    */
  def sweep(prev: Array[Double], next: Array[Double], lo: Int, hi: Int, at: Int): Double = {
    val s = scratch.get()
    val w = if (prev == null) ones else prev
    val pin = prev != null && cfg.variant == Variant.SimRankCfg
    var delta = 0.0
    var u = index.rowOf(lo)
    var p = lo
    while (p < hi) {
      val end = math.min(hi, index.rowStart(u + 1))
      val row = index.row(u); val base = index.base(u)
      val out1 = g1.outAdj(u).length; val in1 = g1.inAdj(u).length; val m1 = mutual1(u)
      val t = term(index.l1(u))
      while (p < end) {
        val v = row(p - base)
        val x =
          if (prev != null && !maintained(fixed, p)) fixed(p)
          else if (pin && u == v) 1.0
          else {
            val o = side(w, s, off(2 * p), off(2 * p + 1), out1, out2(v))
            val i = side(w, s, off(2 * p + 1), off(2 * p + 2), in1, in2(v)) // no cells if shared: returns at once
            // `&`: a test of m1 alone is loop-invariant, and the JIT would hoist it and deoptimise
            cfg.wPlus * o + cfg.wMinus * (if (m1 & mutual2(v)) o else i) + cfg.wLabel * t(l2(v))
          }
        next(at + p - lo) = x
        if (prev != null) { val d = math.abs(x - prev(p)); if (d > delta) delta = d }
        p += 1
      }
      u += 1
    }
    delta
  }

  /** Σ sweep cost of pairs 0 until p, a pair's cost its cells plus PairCost, read from the CSR offsets. */
  private def costBefore(p: Int): Long = off(2 * p).toLong + PairCost.toLong * p

  /** k + 1 boundaries 0 = c(0) ≤ … ≤ c(k) = size that cut the pairs into k
    * ranges of near-equal sweep cost ([[costBefore]]): c(j) is the first pair whose cost
    * prefix reaches ⌈j · total / k⌉, so no range costs more than
    * ⌈total / k⌉ plus the cost of one of its pairs.
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

  /** The fixpoint loop of Algorithm 1, from FSim⁰ until max |Δ| < ε (or for
    * exactly `exactIters` sweeps), capped by Corollary 1 and [[MaxIters]].
    * `sweep(prev, next)` must set next to FSim^k from prev and return max |Δ|,
    * e.g. by running [[sweep]] over the ranges of some [[cuts]] and taking the
    * max of what they return. The result reads the final score vector through
    * the plan's [[PairIndex]].
    */
  def converge(sweep: (Array[Double], Array[Double]) => Double): FSimResult = {
    var prev = fsim0()
    var next = new Array[Double](size)
    val cap = cfg.exactIters.getOrElse(math.min(MaxIters, cfg.iterationBound.toLong + 1).toInt)
    var iter = 0
    var delta = Double.MaxValue
    var done = false
    while (!done && iter < cap) {
      delta = sweep(prev, next)
      val t = prev; prev = next; next = t
      iter += 1
      if (cfg.exactIters.isEmpty && delta < cfg.epsilon) done = true
    }

    new FSimResult(index, fixed, prev, iter, delta)
  }
}

private object FSimPlan {

  /** Iteration cap of a run to ε (Corollary 1 bounds the need). */
  final val MaxIters = 100

  /** Sweep cost of one pair beyond its cells, in cells: the two side terms,
    * their Ωχ and the pair's row and column. Used only to balance ranges.
    */
  final val PairCost = 2

  /** Ranges of a local parallel sweep: 16 per worker of the common pool, so
    * that work stealing evens out what the cost model misses. A constant.
    */
  def localRanges: Int = 16 * java.util.concurrent.ForkJoinPool.getCommonPoolParallelism

  /** CSR offsets in place from counts (of pairs per u, or of cells per pair side) stored at 1
    * until off.length, with off(0) = 0: afterwards off(i) is the sum of the counts before i.
    */
  def prefixSum(off: Array[Int]): Array[Int] = {
    var total = 0L
    var i = 1
    while (i < off.length) {
      total += off(i)
      require(total <= Int.MaxValue, s"plan exceeds ${Int.MaxValue} pairs or cells")
      off(i) = total.toInt
      i += 1
    }
    off
  }

  /** Pair p is maintained if `fixed` is null or NaN at p; else fixed(p) is its pruned score α·UB. */
  def maintained(fixed: Array[Double], p: Int): Boolean = fixed == null || java.lang.Double.isNaN(fixed(p))

  /** Runs body(c(i), c(i + 1)) for every range of the cuts `c`, in parallel. */
  def inParallel(c: Array[Int])(body: (Int, Int) => Unit): Unit =
    IntStream.range(0, c.length - 1).parallel().forEach(i => body(c(i), c(i + 1)))

  /** The max of body(c(i), c(i + 1)) over the ranges of the cuts `c`, run in parallel; 0 if none. */
  def maxInParallel(c: Array[Int])(body: (Int, Int) => Double): Double =
    IntStream.range(0, c.length - 1).parallel().mapToDouble(i => body(c(i), c(i + 1))).max().orElse(0.0)
}

/** Set-up state of an [[FSimPlan]]'s phases 2 and 3. A class is one distinct eligible row of the
  * [[PairIndex]]; a full one (all of V2, as at θ = 0) needs no list. Per side of G2 (out, in), node
  * v and class c that is not full, a [[Side]] lists the positions b in N(v) whose node c may pair
  * with, ascending: O(|V2| + Σ_y deg(y) · classes(y)) entries, classes(y) those of y's label.
  */
private final class ClassLists(index: PairIndex, g2: LocalGraph) {
  private val (labelClass, rows) = index.classes()
  private val l2 = g2.labelId
  private val ofLabel: Array[Array[Int]] = { // per Σ2 label, the classes that hold its nodes, ascending
    val of = Array.fill(g2.sigma.length)(Array.newBuilder[Int]); val last = Array.fill(of.length)(-1)
    for (c <- rows.indices; y <- rows(c) if last(l2(y)) != c) { last(l2(y)) = c; of(l2(y)) += c }
    of.map(_.result())
  }
  val classOf: Array[Int] = index.l1.map(labelClass(_)) // per G1 node
  /** Per thread, two zeros per class: [[Side.count]]'s tallies or [[Side.scatter]]'s ranges. */
  val scratch: ThreadLocal[Array[Int]] = ThreadLocal.withInitial(() => new Array[Int](2 * rows.length))
  // without a class that is not full (every Table-6 query at θ = 0) no list is read, so none is built
  val out: Side = if (rows.isEmpty) null else new Side(g2.outAdj)
  val in: Side = if (rows.isEmpty) null else new Side(g2.inAdj)

  /** Node v's entries are at(v) until at(v + 1): (c << 32) | b per b in N(v) and class c of its
    * node, ascending, so each class's positions are one run; a run starting at e ends at runEnd(e).
    * Built by a count, a prefix sum and a fill over `adj`, in parallel over v.
    */
  final class Side(adj: Array[Array[Int]]) {
    private val at = new Array[Int](adj.length + 1)
    for (v <- adj.indices; y <- adj(v)) at(v + 1) += ofLabel(l2(y)).length
    prefixSum(at)
    private val entry = new Array[Long](at(adj.length))
    private val runEnd = new Array[Int](entry.length)
    IntStream.range(0, adj.length).parallel().forEach { v =>
      var e = at(v); var b = 0
      while (b < adj(v).length) { for (c <- ofLabel(l2(adj(v)(b)))) { entry(e) = c.toLong << 32 | b; e += 1 }; b += 1 }
      java.util.Arrays.sort(entry, at(v), e)
      while (e > at(v)) { e -= 1; runEnd(e) = if (e + 1 < at(v + 1) && cls(e + 1) == cls(e)) runEnd(e + 1) else e + 1 }
    }
    private def cls(e: Int): Int = (entry(e) >>> 32).toInt

    /** Σ over the runs of v of the tally mult(c) of their class c times their length. */
    def count(v: Int, mult: Array[Int]): Int = {
      var n = 0; var e = at(v)
      while (e < at(v + 1)) { n += mult(cls(e)) * (runEnd(e) - e); e = runEnd(e) }
      n
    }

    /** Sets range(2c) until range(2c + 1) to the run of each class c that v lists, or back to 0. */
    def scatter(v: Int, range: Array[Int], on: Boolean): Unit = {
      var e = at(v)
      while (e < at(v + 1)) {
        range(2 * cls(e)) = if (on) e else 0; range(2 * cls(e) + 1) = if (on) runEnd(e) else 0
        e = runEnd(e)
      }
    }

    /** The position b of entry e. */
    def position(e: Int): Int = entry(e).toInt
  }
}

/** The one map from a pair to its score-vector slot and back, which
  * [[FSimPlan]], [[FSimResult]] and the FINAL-like aligner read through. Under
  * Remark 2's label constraint, H_c and every eligible neighbour pair are the
  * same L ≥ θ pairs, so [[slot]](x, y) is computed, not searched: row x's
  * start plus y's rank in [[row]](x), the g2 nodes x's label (`l1(x)`) may
  * pair with (`eligible2`). Slots run in (u, v) order; a half plan (G1 = G2,
  * P3) keeps only u ≤ v and reads (x, y), y < x, as (y, x). Labels that
  * share one eligible2 array share one rank array of |V2| ints, and the Spark
  * broadcast carries each once with the plan.
  */
@SerialVersionUID(1L)
private[repro] final class PairIndex(val l1: Array[Int], eligible2: Array[Array[Int]], val n2: Int,
                                     val half: Boolean) extends Serializable {

  def n1: Int = l1.length

  /** rank2(a)(y): y's index in eligible2(a), or −1 if y is not eligible; one array per distinct row. */
  private val rank2: Array[Array[Int]] = {
    val shared = new java.util.IdentityHashMap[Array[Int], Array[Int]]
    eligible2.map(shared.computeIfAbsent(_, { vs =>
      val rank = new Array[Int](n2); java.util.Arrays.fill(rank, -1)
      for (i <- vs.indices) rank(vs(i)) = i; rank
    }))
  }

  /** Per Σ1 label its class: its row's id among the distinct rows that are not all of V2, or −1 for
    * a full row; and those rows by id. For the plan's set-up, not kept.
    */
  def classes(): (Array[Int], Array[Array[Int]]) = {
    val id = new java.util.IdentityHashMap[Array[Int], Integer]
    val rows = Array.newBuilder[Array[Int]]
    (eligible2.map(r => if (r.length == n2) -1 else id.computeIfAbsent(r, { r => rows += r; id.size }).intValue),
      rows.result())
  }

  /** Where row u's slots start in row(u): at v = u in a half plan (L(a, a) = 1 ≥ θ), else 0. */
  private val firstCol: Array[Int] = Array.tabulate(n1)(u => if (half) ranks(u)(u) else 0)

  /** The slot of each row's first pair (n1 + 1 entries); an empty row starts where the next does. */
  val rowStart: Array[Int] =
    prefixSum(Array.tabulate(n1 + 1)(u => if (u == 0) 0 else row(u - 1).length - firstCol(u - 1)))

  /** Number of slots, |H_c|. */
  def size: Int = rowStart(n1)

  /** x's ranks: y's index in row(x), or −1 if (x, y) is not eligible. */
  def ranks(x: Int): Array[Int] = rank2(l1(x))

  /** The g2 nodes u may pair with, ascending, mirrors of a half plan included. */
  def row(u: Int): Array[Int] = eligible2(l1(u))

  /** The row u of slot p: the last row starting at or before p (rows may be empty), by binary search. */
  def rowOf(p: Int): Int = {
    var lo = 0; var hi = n1
    while (lo < hi) { val mid = (lo + hi + 1) >>> 1; if (rowStart(mid) <= p) lo = mid else hi = mid - 1 }
    lo
  }

  /** Runs body(u, p) for the slots p of lo until hi in order, u p's row: one [[rowOf]], then a cursor. */
  def foreachSlot(lo: Int, hi: Int)(body: (Int, Int) => Unit): Unit = {
    var u = rowOf(lo); var p = lo
    while (p < hi) {
      while (p >= rowStart(u + 1)) u += 1
      body(u, p)
      p += 1
    }
  }

  /** Row x's slot base: slot(x, y) = base(x) + y's rank, unless a half plan mirrors (x, y). */
  def base(x: Int): Int = rowStart(x) - firstCol(x)

  /** The g2 node v of slot p in row u, so that slot(u, v) == p. */
  def col(u: Int, p: Int): Int = row(u)(p - base(u))

  /** The slot of the eligible pair (x, y); a half plan reads (y, x) when y < x. */
  def slot(x: Int, y: Int): Int = if (half && y < x) base(y) + ranks(y)(x) else base(x) + ranks(x)(y)
}
