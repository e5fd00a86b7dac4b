package repro.core

/** The simulation variants χ studied by the paper (Definition 2/3), plus the
  * two §4.3 discussion configurations (SimRank, RoleSim) that reuse the same
  * iterative machinery with different mapping/normalizing operators.
  */
sealed trait Variant extends Serializable { def name: String }
object Variant {
  /** Simple simulation: f_s : S1 → S2, Ω = |S1|. */
  case object S extends Variant { val name = "s" }
  /** Degree-preserving: injective f_dp : S1' → S2, Ω = |S1|. */
  case object DP extends Variant { val name = "dp" }
  /** Bisimulation: map every node of S1 ∪ S2 across, Ω = |S1| + |S2|. */
  case object B extends Variant { val name = "b" }
  /** Bijective (new in the paper): injective both ways, Ω = sqrt(|S1||S2|). */
  case object BJ extends Variant { val name = "bj" }
  /** §4.3: M = S1×S2, Ω = |S1||S2| — the SimRank configuration. */
  case object SimRankCfg extends Variant { val name = "simrank" }
  /** §4.3: greedy matching with Ω = max(|S1|,|S2|) — the RoleSim configuration. */
  case object RoleSimCfg extends Variant { val name = "rolesim" }

  val paper: Seq[Variant] = Seq(S, DP, B, BJ)
}

/** Mapping operators Mχ and normalizers Ωχ (Eq. 2 / Table 3 of the paper).
  *
  * [[mapRaw]] is the one Mχ kernel. [[FSimPlan]] runs it over its compiled
  * neighbour cells, each of which reads its weight from a score vector
  * through the plan's cell→slot array: on the previous scores it is the
  * Eq.-3 update, on an all-ones vector the Eq.-6 upper bound. It works on
  * primitive arrays and a caller-owned [[Scratch]], so it allocates nothing
  * once the scratch has grown to the largest block. Tie-breaking is
  * deterministic, so scores do not depend on how the pairs are distributed.
  * The greedy mapping of dp/bj/RoleSim sorts only the cells its exact
  * weight-1 pass left free, so all-weight-1 blocks (Eq. 6 at θ = 1) skip it.
  */
object Matching {

  /** Reusable buffers of the kernel, grown on demand. One per thread. */
  final class Scratch {
    private var w = new Array[Double](16)
    private[Matching] var order, tmp, onesCol = new Array[Int](16)
    private[Matching] var best = new Array[Double](16)
    private[Matching] var usedA = new Array[Boolean](16)
    private[Matching] var onesOff = new Array[Int](17)
    private[Matching] var runAt, runEnd, heap = new Array[Int](16)
    private[Matching] var usedB = new Array[Boolean](16)
    private[Matching] var matchOf, visited = new Array[Int](16)

    /** The weight buffer, holding at least `cells` entries. Its contents
      * are undefined until the caller fills them.
      */
    def weights(cells: Int): Array[Double] = {
      if (w.length < cells) w = new Array[Double](grow(w.length, cells))
      w
    }

    private[Matching] def ensure(cells: Int, n1: Int, n2: Int): Unit = {
      if (order.length < cells) {
        val c = grow(order.length, cells)
        order = new Array[Int](c); tmp = new Array[Int](c); onesCol = new Array[Int](c)
      }
      if (best.length < math.max(n1, n2)) best = new Array[Double](grow(best.length, math.max(n1, n2)))
      if (usedA.length < n1) {
        val c = grow(usedA.length, n1)
        usedA = new Array[Boolean](c); onesOff = new Array[Int](c + 1)
        runAt = new Array[Int](c); runEnd = new Array[Int](c); heap = new Array[Int](c)
      }
      if (usedB.length < n2) {
        val c = grow(usedB.length, n2)
        usedB = new Array[Boolean](c); visited = new Array[Int](c); matchOf = new Array[Int](c)
      }
    }

    private def grow(have: Int, need: Int): Int = math.max(need, have * 2)
  }

  /** Raw value Σ w over the maximum mapping Mχ(S1, S2) — the numerator of
    * Eq. 2 before dividing by Ωχ. At unit weights it is |Mχ|, the numerator
    * of the Eq.-6 upper bound.
    *
    * The block has rows 0 until n1 (S1) and columns 0 until n2 (S2). Its
    * `len` cells are (a(from + k), b(from + k)) with weight w(src(from + k)),
    * in ascending (a, b) order, so each row's cells are one run; only L ≥ θ
    * pairs may be passed in, eligibility is the caller's job (Remark 2).
    *
    * s and b's row half sum each run's maximum in ascending row order, b's
    * column half the per-column maxima in ascending column order. dp/bj and
    * RoleSim gather the weights into [[Scratch.weights]] for the greedy
    * approximation of maximum weighted matching the paper adopts from [23],
    * after an exact pass over the weight-1 cells. The SimRank configuration
    * sums every weight in cell order.
    *
    * Blocks of 0 or 1 cells, most blocks of a sparse graph at θ = 1, return
    * before the scratch is touched, with the value the general path gives
    * bit for bit.
    */
  def mapRaw(variant: Variant, a: Array[Int], b: Array[Int], from: Int, len: Int,
             w: Array[Double], src: Array[Int], n1: Int, n2: Int, s: Scratch): Double = {
    if (len == 0) return 0.0
    if (len == 1) return oneCell(variant, w(src(from)))
    if (variant != Variant.S) s.ensure(len, n1, n2)
    variant match {
      case Variant.S  => sumRowMax(a, from, len, w, src)
      case Variant.B  => sumRowMax(a, from, len, w, src) + sumColMax(b, from, len, w, src, n2, s.best)
      case Variant.DP | Variant.BJ | Variant.RoleSimCfg => greedyMatchSum(a, b, from, len, w, src, n1, n2, s)
      case Variant.SimRankCfg =>
        var sum = 0.0
        var k = from
        while (k < from + len) { sum += w(src(k)); k += 1 }
        sum
    }
  }

  /** Final per-side term of Eq. 3: raw / Ωχ with the empty-neighborhood
    * conventions of DESIGN.md §5 (forced by well-definiteness P2).
    */
  def term(variant: Variant, raw: Double, n1: Int, n2: Int): Double = variant match {
    case Variant.S | Variant.DP =>
      if (n1 == 0) 1.0 else raw / n1
    case Variant.B =>
      if (n1 == 0 && n2 == 0) 1.0 else raw / (n1 + n2)
    case Variant.BJ =>
      if (n1 == 0 && n2 == 0) 1.0
      else if (n1 == 0 || n2 == 0) 0.0
      else raw / math.sqrt(n1.toDouble * n2.toDouble)
    case Variant.SimRankCfg =>
      if (n1 == 0 || n2 == 0) 0.0 else raw / (n1.toDouble * n2.toDouble)
    case Variant.RoleSimCfg =>
      if (n1 == 0 && n2 == 0) 1.0 else if (n1 == 0 || n2 == 0) 0.0
      else raw / math.max(n1, n2)
  }

  // kept out of mapRaw, like greedyMatchSum's gather, so that mapRaw stays under the JIT's inlining size
  private def oneCell(variant: Variant, w0: Double): Double = variant match {
    case Variant.B => w0 + w0
    case Variant.DP | Variant.BJ | Variant.RoleSimCfg => if (w0 >= 1.0 - OneEps) 1.0 else w0
    case Variant.S | Variant.SimRankCfg => w0
  }

  /** Σ over the runs of equal row in a(from until from + len) of the largest weight in the run. */
  private def sumRowMax(a: Array[Int], from: Int, len: Int, w: Array[Double], src: Array[Int]): Double = {
    var sum = 0.0
    var k = from
    while (k < from + len) {
      val row = a(k)
      var max = w(src(k))
      k += 1
      while (k < from + len && a(k) == row) { val x = w(src(k)); if (x > max) max = x; k += 1 }
      sum += max
    }
    sum
  }

  /** Σ over the columns 0 until n that own a cell of the largest weight among them. */
  private def sumColMax(b: Array[Int], from: Int, len: Int, w: Array[Double], src: Array[Int], n: Int,
                        best: Array[Double]): Double = {
    java.util.Arrays.fill(best, 0, n, -1.0)
    var k = from
    while (k < from + len) { val x = w(src(k)); if (x > best(b(k))) best(b(k)) = x; k += 1 }
    var sum = 0.0
    var j = 0
    while (j < n) { if (best(j) > -1.0) sum += best(j); j += 1 }
    sum
  }

  private final val OneEps = 1e-9

  /** Greedy weighted matching with an exactness refinement on weight-1
    * cells: cells at the maximum possible weight 1 are matched *exactly*
    * (Kuhn's augmenting paths, maximizing their count, each counted as
    * exactly 1.0) before the greedy sweep handles the rest. Plain greedy can
    * tie-break a weight-1 cell into a position that blocks a perfect
    * weight-1 matching, which would violate simulation definiteness (P2)
    * for dp/bj. The sweep takes cells by weight desc, ties in (a, b) order,
    * whose endpoints are both free. Determinism matters — local and Spark
    * engines must agree.
    *
    * The sweep sorts only the cells of weight > 0 whose row and column the
    * exact pass left free; it would skip the other cells, the stable sort
    * keeps their order, and weight-0 cells sort last and add +0.0, so the
    * sum is unchanged bit for bit. If no cell is left, as when every cell
    * weighs 1, the Kuhn count is the result. The cells' weights
    * scores(src(from + k)) are first gathered into [[Scratch.weights]].
    *
    * Above [[MergeMinFree]] free cells, at [[MergeMinRun]] or more per row that has one, [[mergeRows]]
    * merges sorted rows instead of one sort: under the strict (weight desc, cell asc) order greedy is the
    * locally dominant matching (Preis, STACS 1999), so it takes the same cells and adds them in order.
    */
  private def greedyMatchSum(a: Array[Int], b: Array[Int], from: Int, len: Int,
                             scores: Array[Double], src: Array[Int], n1: Int, n2: Int, s: Scratch): Double = {
    val w = s.weights(len)
    var k = 0
    while (k < len) { w(k) = scores(src(from + k)); k += 1 }
    val usedA = s.usedA; val usedB = s.usedB
    java.util.Arrays.fill(usedA, 0, n1, false)
    java.util.Arrays.fill(usedB, 0, n2, false)

    // weight-1 cells as CSR rows, in (a, b) order
    val off = s.onesOff; val col = s.onesCol
    java.util.Arrays.fill(off, 0, n1 + 1, 0)
    var ones = 0
    k = 0
    while (k < len) {
      if (w(k) >= 1.0 - OneEps) { off(a(from + k) + 1) += 1; col(ones) = b(from + k); ones += 1 }
      k += 1
    }
    var count = 0
    if (ones > 0) {
      var i = 0
      while (i < n1) { off(i + 1) += off(i); i += 1 }
      count = Bipartite.matching(n1, off, col, n2, s.matchOf, s.visited)
      var j = 0
      while (j < n2) {
        val i = s.matchOf(j)
        if (i >= 0) { usedA(i) = true; usedB(j) = true }
        j += 1
      }
    }

    // only cells with both endpoints free can still be matched, and only
    // those of weight > 0 can add to the sum; rows counts the rows they lie in
    val order = s.order
    var free, rows = 0
    k = 0
    while (k < len) {
      val x = a(from + k)
      if (w(k) > 0 && !usedA(x) && !usedB(b(from + k))) {
        if (free == 0 || a(from + order(free - 1)) != x) rows += 1
        order(free) = k; free += 1
      }
      k += 1
    }
    if (free == 0) return count.toDouble
    if (free > MergeMinFree && free >= MergeMinRun * rows) return mergeRows(a, b, from, w, free, count, s)
    sortByWeightDesc(order, s.tmp, 0, free, w)
    var sum = count.toDouble
    k = 0
    while (k < free) {
      val c = order(k)
      val x = a(from + c); val y = b(from + c)
      if (!usedA(x) && !usedB(y)) { usedA(x) = true; usedB(y) = true; sum += w(c) }
      k += 1
    }
    sum
  }

  // mergeRows does not pay up to 32 free cells, which the single sort sorts by insertion
  // without a merge pass, nor below 4 per row, where its heap adds a log factor per cell
  private final val MergeMinFree = 32
  private final val MergeMinRun = 4

  /** The greedy sweep over the free cells order(0 until free), ascending, from the Kuhn count:
    * each row's cells sorted alone, then a heap of row heads in (weight desc, cell asc) order.
    * The top head is matched and its row leaves, or its column is taken and the row moves on.
    */
  private def mergeRows(a: Array[Int], b: Array[Int], from: Int, w: Array[Double],
                        free: Int, count: Int, s: Scratch): Double = {
    val order = s.order; val usedB = s.usedB; val at = s.runAt; val end = s.runEnd; val heap = s.heap
    var r, lo = 0
    while (lo < free) {
      var hi = lo + 1
      while (hi < free && a(from + order(hi)) == a(from + order(lo))) hi += 1
      sortByWeightDesc(order, s.tmp, lo, hi, w)
      at(r) = lo; end(r) = hi; heap(r) = r
      r += 1; lo = hi
    }
    def before(p: Int, q: Int): Boolean = {
      val cp = order(at(p)); val cq = order(at(q))
      w(cp) > w(cq) || (w(cp) == w(cq) && cp < cq)
    }
    def siftDown(start: Int, size: Int): Unit = {
      val run = heap(start)
      var i = start; var c = 2 * i + 1
      while (c < size) {
        if (c + 1 < size && before(heap(c + 1), heap(c))) c += 1
        if (before(heap(c), run)) { heap(i) = heap(c); i = c; c = 2 * i + 1 } else c = size
      }
      heap(i) = run
    }
    var size = r
    while (r > 0) { r -= 1; siftDown(r, size) }
    var sum = count.toDouble
    while (size > 0) {
      val top = heap(0); val c = order(at(top)); val y = b(from + c)
      if (!usedB(y)) { usedB(y) = true; sum += w(c); at(top) = end(top) } else at(top) += 1
      if (at(top) == end(top)) { size -= 1; heap(0) = heap(size) }
      siftDown(0, size)
    }
    sum
  }

  /** Stable sort of order(lo until hi) by w desc: insertion sort for short
    * runs, bottom-up merge sort through `tmp` above that.
    */
  private def sortByWeightDesc(order: Array[Int], tmp: Array[Int], lo: Int, hi: Int, w: Array[Double]): Unit =
    if (hi - lo <= 32) {
      var i = lo + 1
      while (i < hi) {
        val c = order(i)
        var j = i - 1
        while (j >= lo && w(order(j)) < w(c)) { order(j + 1) = order(j); j -= 1 }
        order(j + 1) = c
        i += 1
      }
    } else {
      var src = order; var dst = tmp
      var width = 1
      while (width < hi - lo) {
        var l = lo
        while (l < hi) {
          val mid = math.min(l + width, hi); val end = math.min(l + 2 * width, hi)
          var i = l; var j = mid; var k = l
          while (k < end) {
            if (j >= end || (i < mid && w(src(i)) >= w(src(j)))) { dst(k) = src(i); i += 1 }
            else { dst(k) = src(j); j += 1 }
            k += 1
          }
          l = end
        }
        val t = src; src = dst; dst = t
        width *= 2
      }
      if (src ne order) System.arraycopy(src, lo, order, lo, hi - lo)
    }
}
