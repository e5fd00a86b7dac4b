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
  * neighbour cells: with the previous scores as weights it is the Eq.-3
  * update, with unit weights it is the Eq.-6 upper bound. It works on
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
    * `len` cells are (a(from + k), b(from + k)) with weight w(k), listed in
    * ascending (a, b) order; only L ≥ θ pairs may be passed in, eligibility
    * is the caller's job (Remark 2, label-constrained mapping).
    *
    * s/b sum per-row (and per-column) maxima in ascending index order. dp/bj
    * and RoleSim use the greedy approximation of maximum weighted matching
    * the paper adopts from [23], after an exact pass over the weight-1
    * cells. The SimRank configuration sums every weight in cell order.
    *
    * Blocks of 0 or 1 cells, most blocks of a sparse graph at θ = 1, return
    * before the scratch is touched, with the value the general path gives
    * bit for bit.
    */
  def mapRaw(variant: Variant, a: Array[Int], b: Array[Int], from: Int, len: Int,
             w: Array[Double], n1: Int, n2: Int, s: Scratch): Double = {
    if (len == 0) return 0.0
    if (len == 1) return variant match {
      case Variant.B => w(0) + w(0)
      case Variant.DP | Variant.BJ | Variant.RoleSimCfg => if (w(0) >= 1.0 - OneEps) 1.0 else w(0)
      case Variant.S | Variant.SimRankCfg => w(0)
    }
    s.ensure(len, n1, n2)
    variant match {
      case Variant.S  => sumMax(a, from, len, w, n1, s.best)
      case Variant.B  => sumMax(a, from, len, w, n1, s.best) + sumMax(b, from, len, w, n2, s.best)
      case Variant.DP | Variant.BJ | Variant.RoleSimCfg => greedyMatchSum(a, b, from, len, w, n1, n2, s)
      case Variant.SimRankCfg =>
        var sum = 0.0
        var k = 0
        while (k < len) { sum += w(k); k += 1 }
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

  /** Σ over the keys 0 until n that own a cell of the largest w among them. */
  private def sumMax(key: Array[Int], from: Int, len: Int, w: Array[Double], n: Int,
                     best: Array[Double]): Double = {
    java.util.Arrays.fill(best, 0, n, -1.0)
    var k = 0
    while (k < len) {
      val i = key(from + k)
      if (w(k) > best(i)) best(i) = w(k)
      k += 1
    }
    var sum = 0.0
    var i = 0
    while (i < n) {
      if (best(i) > -1.0) sum += best(i)
      i += 1
    }
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
    * weighs 1, the Kuhn count is the result.
    */
  private def greedyMatchSum(a: Array[Int], b: Array[Int], from: Int, len: Int,
                             w: Array[Double], n1: Int, n2: Int, s: Scratch): Double = {
    val usedA = s.usedA; val usedB = s.usedB
    java.util.Arrays.fill(usedA, 0, n1, false)
    java.util.Arrays.fill(usedB, 0, n2, false)

    // weight-1 cells as CSR rows, in (a, b) order
    val off = s.onesOff; val col = s.onesCol
    java.util.Arrays.fill(off, 0, n1 + 1, 0)
    var ones = 0
    var k = 0
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
    // those of weight > 0 can add to the sum
    val order = s.order
    var free = 0
    k = 0
    while (k < len) {
      if (w(k) > 0 && !usedA(a(from + k)) && !usedB(b(from + k))) { order(free) = k; free += 1 }
      k += 1
    }
    if (free == 0) return count.toDouble
    sortByWeightDesc(order, s.tmp, free, w)
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

  /** Stable sort of order(0 until len) by w desc: insertion sort for short
    * blocks, bottom-up merge sort through `tmp` above that.
    */
  private def sortByWeightDesc(order: Array[Int], tmp: Array[Int], len: Int, w: Array[Double]): Unit =
    if (len <= 32) {
      var i = 1
      while (i < len) {
        val c = order(i)
        var j = i - 1
        while (j >= 0 && w(order(j)) < w(c)) { order(j + 1) = order(j); j -= 1 }
        order(j + 1) = c
        i += 1
      }
    } else {
      var src = order; var dst = tmp
      var width = 1
      while (width < len) {
        var lo = 0
        while (lo < len) {
          val mid = math.min(lo + width, len); val hi = math.min(lo + 2 * width, len)
          var i = lo; var j = mid; var k = lo
          while (k < hi) {
            if (j >= hi || (i < mid && w(src(i)) >= w(src(j)))) { dst(k) = src(i); i += 1 }
            else { dst(k) = src(j); j += 1 }
            k += 1
          }
          lo = hi
        }
        val t = src; src = dst; dst = t
        width *= 2
      }
      if (src ne order) System.arraycopy(src, 0, order, 0, len)
    }
}
