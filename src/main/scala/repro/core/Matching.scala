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
  * Called from [[FSimPlan]]'s side function, which both engines run: with
  * the previous scores as weights it is the Eq.-3 update, with unit weights
  * it is the Eq.-6 upper bound. Tie-breaking is deterministic, so scores do
  * not depend on how the pairs are distributed.
  */
object Matching {

  /** A candidate neighbor pair (x ∈ S1, y ∈ S2) with the previous-iteration
    * score w = FSim^{k-1}(x, y). Only L(x,y) ≥ θ pairs may be passed in —
    * eligibility is the caller's job (Remark 2, label-constrained mapping).
    */
  final case class Cand(x: Int, y: Int, w: Double)

  /** Raw value Σ w over the maximum mapping Mχ(S1, S2) — the numerator of
    * Eq. 2 before dividing by Ωχ. At unit weights it is |Mχ|, the numerator
    * of the Eq.-6 upper bound.
    *
    * dp/bj use the greedy approximation of maximum weighted matching the
    * paper adopts from [23]; s/b take per-node maxima; the SimRank
    * configuration sums everything.
    */
  def mapRaw(variant: Variant, pairs: collection.Seq[Cand]): Double = variant match {
    case Variant.S          => sumMax(pairs, _.x)
    case Variant.B          => sumMax(pairs, _.x) + sumMax(pairs, _.y)
    case Variant.DP         => greedyMatchSum(pairs)
    case Variant.BJ         => greedyMatchSum(pairs)
    case Variant.RoleSimCfg => greedyMatchSum(pairs)
    case Variant.SimRankCfg => pairs.iterator.map(_.w).sum
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

  /** Σ over the distinct keys (x for rows, y for columns) of the largest w. */
  private def sumMax(pairs: collection.Seq[Cand], key: Cand => Int): Double = {
    val best = collection.mutable.HashMap.empty[Int, Double]
    pairs.foreach { c =>
      val cur = best.getOrElse(key(c), -1.0)
      if (c.w > cur) best(key(c)) = c.w
    }
    best.valuesIterator.sum
  }

  /** Deterministic greedy maximum-weight matching ([23]'s heuristic): sort by
    * weight desc (ties by (x, y) asc) and take pairs whose endpoints are both
    * free. Determinism matters — local and Spark engines must agree.
    */
  private def sortedPairs(pairs: collection.Seq[Cand]): Array[Cand] = {
    val arr = pairs.toArray
    java.util.Arrays.sort(arr, (a: Cand, b: Cand) => {
      val byW = java.lang.Double.compare(b.w, a.w)
      if (byW != 0) byW
      else {
        val byX = Integer.compare(a.x, b.x)
        if (byX != 0) byX else Integer.compare(a.y, b.y)
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
  private def greedyMatchSum(pairs: collection.Seq[Cand]): Double = {
    val usedX = collection.mutable.HashSet.empty[Int]
    val usedY = collection.mutable.HashSet.empty[Int]
    var sum = 0.0
    sum += matchOnes(pairs, usedX, usedY)
    for (c <- sortedPairs(pairs)) {
      if (!usedX.contains(c.x) && !usedY.contains(c.y)) {
        usedX += c.x; usedY += c.y; sum += c.w
      }
    }
    sum
  }

  private final val OneEps = 1e-9

  /** Exact maximum matching restricted to weight-(~1) pairs; marks the used
    * endpoints and returns the number matched (== weight sum, each w ≈ 1,
    * counted as exactly 1.0 to keep simulation definiteness float-exact).
    */
  private def matchOnes(pairs: collection.Seq[Cand],
                        usedX: collection.mutable.HashSet[Int],
                        usedY: collection.mutable.HashSet[Int]): Double = {
    val ones = pairs.filter(_.w >= 1.0 - OneEps)
    if (ones.isEmpty) return 0.0
    val xs = ones.map(_.x).distinct.sorted.toArray
    val ys = ones.map(_.y).distinct.sorted.toArray
    val yIdx = ys.zipWithIndex.toMap
    val adj: Array[Array[Int]] = {
      val m = collection.mutable.HashMap.empty[Int, collection.mutable.ArrayBuffer[Int]]
      ones.foreach(c => m.getOrElseUpdate(c.x, collection.mutable.ArrayBuffer()) += yIdx(c.y))
      xs.map(x => m(x).toArray.sorted)
    }
    val matchOf = Bipartite.matching(adj, ys.length)
    var count = 0
    for (j <- matchOf.indices if matchOf(j) >= 0) {
      usedX += xs(matchOf(j)); usedY += ys(j); count += 1
    }
    count.toDouble
  }
}
