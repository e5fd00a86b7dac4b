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
  * Called from [[FSimPlan.score]], which both engines run. Tie-breaking is
  * deterministic, so scores do not depend on how the pairs are distributed.
  */
object Matching {

  /** A candidate neighbor pair (x ∈ S1, y ∈ S2) with the previous-iteration
    * score w = FSim^{k-1}(x, y). Only L(x,y) ≥ θ pairs may be passed in —
    * eligibility is the caller's job (Remark 2, label-constrained mapping).
    */
  final case class Cand(x: Long, y: Long, w: Double)

  /** Raw value Σ FSim^{k-1} over the maximum mapping Mχ(S1, S2) — the
    * numerator of Eq. 2 before dividing by Ωχ. `n1`/`n2` are |S1|/|S2|
    * (needed because `pairs` lists only *eligible* pairs).
    *
    * dp/bj use the greedy approximation of maximum weighted matching the
    * paper adopts from [23]; s/b take per-node maxima; the SimRank
    * configuration sums everything.
    */
  def mapRaw(variant: Variant, pairs: Seq[Cand]): Double = variant match {
    case Variant.S          => sumRowMax(pairs)
    case Variant.B          => sumRowMax(pairs) + sumColMax(pairs)
    case Variant.DP         => greedyMatchSum(pairs)
    case Variant.BJ         => greedyMatchSum(pairs)
    case Variant.RoleSimCfg => greedyMatchSum(pairs)
    case Variant.SimRankCfg => pairs.iterator.map(_.w).sum
  }

  /** Number of pairs |Mχ| that the maximum mapping can contain — used by the
    * upper bound of Eq. 6 (scores are ≤ 1, so ub = Σ weights bounded by |M|).
    */
  def mapSize(variant: Variant, pairs: Seq[Cand]): Int = variant match {
    case Variant.S          => pairs.iterator.map(_.x).toSet.size
    case Variant.B          => pairs.iterator.map(_.x).toSet.size + pairs.iterator.map(_.y).toSet.size
    case Variant.DP         => greedyMatchCount(pairs)
    case Variant.BJ         => greedyMatchCount(pairs)
    case Variant.RoleSimCfg => greedyMatchCount(pairs)
    case Variant.SimRankCfg => pairs.size
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

  /** Ωχ itself (for the Eq. 6 upper bound); 0 encodes "empty convention". */
  def omega(variant: Variant, n1: Int, n2: Int): Double = variant match {
    case Variant.S | Variant.DP => n1.toDouble
    case Variant.B              => (n1 + n2).toDouble
    case Variant.BJ             => math.sqrt(n1.toDouble * n2.toDouble)
    case Variant.SimRankCfg     => n1.toDouble * n2.toDouble
    case Variant.RoleSimCfg     => math.max(n1, n2).toDouble
  }

  /** Whether the variant is converse-invariant (Figure 3a) — those must be
    * symmetric by property P3.
    */
  def converseInvariant(variant: Variant): Boolean =
    variant == Variant.B || variant == Variant.BJ

  private def sumRowMax(pairs: Seq[Cand]): Double = {
    val best = collection.mutable.HashMap.empty[Long, Double]
    pairs.foreach { c =>
      val cur = best.getOrElse(c.x, -1.0)
      if (c.w > cur) best(c.x) = c.w
    }
    best.valuesIterator.sum
  }

  private def sumColMax(pairs: Seq[Cand]): Double = {
    val best = collection.mutable.HashMap.empty[Long, Double]
    pairs.foreach { c =>
      val cur = best.getOrElse(c.y, -1.0)
      if (c.w > cur) best(c.y) = c.w
    }
    best.valuesIterator.sum
  }

  /** Deterministic greedy maximum-weight matching ([23]'s heuristic): sort by
    * weight desc (ties by (x, y) asc) and take pairs whose endpoints are both
    * free. Determinism matters — local and Spark engines must agree.
    */
  private def sortedPairs(pairs: Seq[Cand]): Array[Cand] = {
    val arr = pairs.toArray
    java.util.Arrays.sort(arr, (a: Cand, b: Cand) => {
      val byW = java.lang.Double.compare(b.w, a.w)
      if (byW != 0) byW
      else {
        val byX = java.lang.Long.compare(a.x, b.x)
        if (byX != 0) byX else java.lang.Long.compare(a.y, b.y)
      }
    })
    arr
  }

  /** Greedy weighted matching with an exactness refinement on weight-1
    * pairs: pairs at the maximum possible weight 1 are matched *exactly*
    * (Kuhn's augmenting paths, maximizing their count) before the greedy
    * sweep handles the rest. Plain greedy can tie-break a weight-1 pair into
    * a position that blocks a perfect weight-1 matching, which would violate
    * simulation definiteness (P2) for dp/bj — the refinement restores P2
    * while keeping the paper's greedy efficiency for fractional weights.
    */
  private def greedyMatchSum(pairs: Seq[Cand]): Double = {
    val usedX = collection.mutable.HashSet.empty[Long]
    val usedY = collection.mutable.HashSet.empty[Long]
    var sum = 0.0
    sum += matchOnes(pairs, usedX, usedY)
    for (c <- sortedPairs(pairs)) {
      if (!usedX.contains(c.x) && !usedY.contains(c.y)) {
        usedX += c.x; usedY += c.y; sum += c.w
      }
    }
    sum
  }

  private def greedyMatchCount(pairs: Seq[Cand]): Int = {
    val usedX = collection.mutable.HashSet.empty[Long]
    val usedY = collection.mutable.HashSet.empty[Long]
    var k = math.round(matchOnes(pairs, usedX, usedY)).toInt
    for (c <- sortedPairs(pairs)) {
      if (!usedX.contains(c.x) && !usedY.contains(c.y)) {
        usedX += c.x; usedY += c.y; k += 1
      }
    }
    k
  }

  private final val OneEps = 1e-9

  /** Exact maximum matching restricted to weight-(~1) pairs; marks the used
    * endpoints and returns the number matched (== weight sum, each w ≈ 1,
    * counted as exactly 1.0 to keep simulation definiteness float-exact).
    */
  private def matchOnes(pairs: Seq[Cand],
                        usedX: collection.mutable.HashSet[Long],
                        usedY: collection.mutable.HashSet[Long]): Double = {
    val ones = pairs.filter(_.w >= 1.0 - OneEps)
    if (ones.isEmpty) return 0.0
    val xs = ones.map(_.x).distinct.sorted.toArray
    val ys = ones.map(_.y).distinct.sorted.toArray
    val yIdx = ys.zipWithIndex.toMap
    val adj: Array[Array[Int]] = {
      val m = collection.mutable.HashMap.empty[Long, collection.mutable.ArrayBuffer[Int]]
      ones.foreach(c => m.getOrElseUpdate(c.x, collection.mutable.ArrayBuffer()) += yIdx(c.y))
      xs.map(x => m(x).toArray.sorted)
    }
    val matchOf = Array.fill(ys.length)(-1)
    val visited = new Array[Boolean](ys.length)
    def tryKuhn(i: Int): Boolean = {
      for (j <- adj(i)) {
        if (!visited(j)) {
          visited(j) = true
          if (matchOf(j) < 0 || tryKuhn(matchOf(j))) { matchOf(j) = i; return true }
        }
      }
      false
    }
    var count = 0
    for (i <- xs.indices) {
      java.util.Arrays.fill(visited, false)
      if (tryKuhn(i)) count += 1
    }
    for (j <- matchOf.indices if matchOf(j) >= 0) {
      usedX += xs(matchOf(j)); usedY += ys(j)
    }
    count.toDouble
  }
}
