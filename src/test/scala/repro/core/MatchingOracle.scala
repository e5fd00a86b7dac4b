package repro.core

import scala.collection.mutable

/** Reference Mχ kernel for tests: the earlier implementation over boxed
  * candidates, HashMap/HashSet bookkeeping and a comparator sort, with its
  * own Kuhn matcher. [[Matching.mapRaw]] must reproduce it: bit for bit for
  * dp, bj, RoleSim and SimRank; within 1e-12 for s and b, whose maxima this
  * oracle sums in HashMap order rather than by ascending index.
  */
object MatchingOracle {

  /** A candidate neighbour pair (x ∈ S1, y ∈ S2) with weight w. */
  final case class Cand(x: Int, y: Int, w: Double)

  def mapRaw(variant: Variant, pairs: Seq[Cand]): Double = variant match {
    case Variant.S          => sumMax(pairs, _.x)
    case Variant.B          => sumMax(pairs, _.x) + sumMax(pairs, _.y)
    case Variant.DP         => greedyMatchSum(pairs)
    case Variant.BJ         => greedyMatchSum(pairs)
    case Variant.RoleSimCfg => greedyMatchSum(pairs)
    case Variant.SimRankCfg => pairs.iterator.map(_.w).sum
  }

  /** [[Matching.mapRaw]] on the same cells: n1 × n2 block, cells in (x, y) order. */
  def kernel(variant: Variant, pairs: Seq[Cand], n1: Int, n2: Int, s: Matching.Scratch): Double = {
    val cells = pairs.sortBy(c => (c.x, c.y)).toArray
    val w = s.weights(cells.length)
    for (k <- cells.indices) w(k) = cells(k).w
    Matching.mapRaw(variant, cells.map(_.x), cells.map(_.y), 0, cells.length, w, cells.indices.toArray, n1, n2, s)
  }

  def kernel(variant: Variant, pairs: Seq[Cand]): Double =
    kernel(variant, pairs, (pairs.map(_.x) :+ -1).max + 1, (pairs.map(_.y) :+ -1).max + 1,
      new Matching.Scratch)

  /** Cells whose x and y are both left unmatched by the exact weight-1 pass. */
  def freeAfterOnes(pairs: Seq[Cand]): Seq[Cand] = {
    val usedX = mutable.HashSet.empty[Int]
    val usedY = mutable.HashSet.empty[Int]
    matchOnes(pairs, usedX, usedY)
    pairs.filter(c => !usedX(c.x) && !usedY(c.y))
  }

  private def sumMax(pairs: Seq[Cand], key: Cand => Int): Double = {
    val best = mutable.HashMap.empty[Int, Double]
    pairs.foreach { c =>
      val cur = best.getOrElse(key(c), -1.0)
      if (c.w > cur) best(key(c)) = c.w
    }
    best.valuesIterator.sum
  }

  /** Greedy dp on `pairs` with equal weights in different rows taken from
    * the higher row first, the reverse of the kernel's tie order.
    */
  def greedyRowsSwapped(pairs: Seq[Cand]): Double = greedyMatchSum(pairs, rowsDesc = true)

  private def greedyMatchSum(pairs: Seq[Cand], rowsDesc: Boolean = false): Double = {
    val usedX = mutable.HashSet.empty[Int]
    val usedY = mutable.HashSet.empty[Int]
    var sum = 0.0
    sum += matchOnes(pairs, usedX, usedY)
    val sorted = pairs.toArray
    java.util.Arrays.sort(sorted, (a: Cand, b: Cand) => {
      val byW = java.lang.Double.compare(b.w, a.w)
      if (byW != 0) byW
      else {
        val byX = if (rowsDesc) Integer.compare(b.x, a.x) else Integer.compare(a.x, b.x)
        if (byX != 0) byX else Integer.compare(a.y, b.y)
      }
    })
    for (c <- sorted) {
      if (!usedX.contains(c.x) && !usedY.contains(c.y)) {
        usedX += c.x; usedY += c.y; sum += c.w
      }
    }
    sum
  }

  private def matchOnes(pairs: Seq[Cand], usedX: mutable.HashSet[Int],
                        usedY: mutable.HashSet[Int]): Double = {
    val ones = pairs.filter(_.w >= 1.0 - 1e-9)
    if (ones.isEmpty) return 0.0
    val xs = ones.map(_.x).distinct.sorted.toArray
    val ys = ones.map(_.y).distinct.sorted.toArray
    val yIdx = ys.zipWithIndex.toMap
    val adj = xs.map(x => ones.filter(_.x == x).map(c => yIdx(c.y)).sorted.toArray)
    val matchOf = Array.fill(ys.length)(-1)
    def tryKuhn(i: Int, visited: Array[Boolean]): Boolean =
      adj(i).exists { j =>
        !visited(j) && {
          visited(j) = true
          if (matchOf(j) < 0 || tryKuhn(matchOf(j), visited)) { matchOf(j) = i; true } else false
        }
      }
    for (i <- xs.indices) tryKuhn(i, new Array[Boolean](ys.length))
    var count = 0
    for (j <- matchOf.indices if matchOf(j) >= 0) {
      usedX += xs(matchOf(j)); usedY += ys(j); count += 1
    }
    count.toDouble
  }
}
