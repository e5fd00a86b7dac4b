package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import repro.SparkSpec
import repro.graph.LocalGraph
import MatchingOracle.Cand

/** Where N⁺(u) = N⁻(u) and N⁺(v) = N⁻(v), the plan stores and sweeps only the
  * out side of pair (u, v) and weights its term twice. The scores must be
  * those of computing both sides: a test-side Algorithm 1 that enumerates
  * every pair's out and in blocks by brute force and runs the Mχ kernel on
  * each must give both engines' scores bit for bit.
  */
class MutualSidesSpec extends SparkSpec {

  /** Digraphs of 1–10 nodes over 1–3 labels, with self-loops and isolated
    * nodes, in which a random subset of nodes (every node, a third of the
    * time) gets the reverse of every edge at it.
    */
  private val graph: Gen[LocalGraph] = for {
    n <- Gen.choose(1, 10)
    m <- Gen.choose(0, 3 * n)
    edges <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    labels <- Gen.listOfN(n, Gen.oneOf("ab", "ba", "abb"))
    all <- Gen.oneOf(true, false, false)
    picked <- Gen.listOfN(n, Gen.prob(0.5))
  } yield {
    val both = (0 until n).map(all || picked(_))
    LocalGraph.fromEdges(labels.toArray, edges ++ edges.collect { case (x, y) if both(x) || both(y) => (y, x) })
  }

  /** G2 is G1 (same object) half the time; every variant, θ ∈ {0, 1, 0.5
    * with L_E}, with and without UbConfig(0.2, 0.5), 1–3 exact iterations.
    */
  private val mutualCase: Gen[(LocalGraph, LocalGraph, FSimConfig)] = for {
    g1 <- graph
    g2 <- Gen.oneOf(Gen.const(g1), graph)
    variant <- Gen.oneOf(Variant.paper ++ Seq(Variant.SimRankCfg, Variant.RoleSimCfg))
    (theta, labelSim) <- Gen.oneOf((0.0, LabelSim.Indicator), (1.0, LabelSim.Indicator), (0.5, LabelSim.EditDistance))
    ub <- Gen.oneOf(None, Some(UbConfig(alpha = 0.2, beta = 0.5)))
    iters <- Gen.choose(1, 3)
  } yield {
    val base = variant match {
      case Variant.SimRankCfg => SimRankRoleSim.simRankConfig()
      case Variant.RoleSimCfg => SimRankRoleSim.roleSimConfig()
      case _ => FSimConfig(variant, wPlus = 0.4, wMinus = 0.4)
    }
    (g1, g2, base.copy(theta = theta, labelSim = labelSim, ub = ub, exactIters = Some(iters)))
  }

  private def halfPlan(g1: LocalGraph, g2: LocalGraph, c: FSimConfig): Boolean =
    (g1 eq g2) && Seq(Variant.B, Variant.BJ, Variant.RoleSimCfg).contains(c.variant)

  /** Algorithm 1 by brute force, both sides of every pair computed: FSim⁰,
    * the Eq.-6 pruning and `exactIters` Eq.-3 sweeps over the L ≥ θ pairs,
    * each side's block enumerated from the adjacency in (a, b) order and run
    * through [[Matching.mapRaw]] with an identity `src`. A half plan keeps
    * u ≤ v and reads (x, y), y < x, as (y, x), as the plan does. Returns
    * score(u, v), 0 for a pair that is not eligible or is pruned.
    */
  private def reference(g1: LocalGraph, g2: LocalGraph, c: FSimConfig): (Int, Int) => Double = {
    val half = halfPlan(g1, g2, c)
    def eligible(x: Int, y: Int) = c.labelSim(g1.labels(x), g2.labels(y)) >= c.theta
    val pairs = for (u <- 0 until g1.n; v <- 0 until g2.n if eligible(u, v) && (!half || u <= v)) yield (u, v)
    def label(u: Int, v: Int) = c.variant match {
      case Variant.SimRankCfg => 0.0
      case Variant.RoleSimCfg => 1.0
      case _ => c.labelSim(g1.labels(u), g2.labels(v))
    }
    val scratch = new Matching.Scratch
    def side(w: (Int, Int) => Double, s1: Array[Int], s2: Array[Int]): Double = {
      val cells = for (a <- s1.indices; b <- s2.indices if eligible(s1(a), s2(b))) yield Cand(a, b, w(s1(a), s2(b)))
      Matching.term(c.variant, MatchingOracle.kernel(c.variant, cells, s1.length, s2.length, scratch),
        s1.length, s2.length)
    }
    def eq3(w: (Int, Int) => Double, u: Int, v: Int): Double =
      c.wPlus * side(w, g1.outAdj(u), g2.outAdj(v)) + c.wMinus * side(w, g1.inAdj(u), g2.inAdj(v)) +
        c.wLabel * label(u, v)
    val fixed: Map[(Int, Int), Double] = c.ub.fold(Map.empty[(Int, Int), Double]) { ub =>
      pairs.map(p => p -> eq3((_, _) => 1.0, p._1, p._2)).collect { case (p, b) if b < ub.beta => p -> ub.alpha * b }.toMap
    }
    val pinned = c.variant == Variant.SimRankCfg
    var score = pairs.map { case (u, v) =>
      (u, v) -> fixed.getOrElse((u, v),
        if (pinned && u == v) 1.0
        else if (c.variant != Variant.RoleSimCfg) label(u, v)
        else {
          val (du, dv) = (g1.outAdj(u).length, g2.outAdj(v).length)
          if (math.max(du, dv) == 0) 1.0 else math.min(du, dv).toDouble / math.max(du, dv)
        })
    }.toMap
    def read(x: Int, y: Int) = if (half && y < x) score((y, x)) else score((x, y))
    for (_ <- 1 to c.exactIters.get)
      score = pairs.map { case (u, v) =>
        (u, v) -> fixed.getOrElse((u, v), if (pinned && u == v) 1.0 else eq3(read, u, v))
      }.toMap
    (u, v) => {
      val (x, y) = if (half && v < u) (v, u) else (u, v)
      if (!eligible(u, v) || fixed.contains((x, y))) 0.0 else score((x, y))
    }
  }

  /** Whether `res` gives the reference's score bits on every (u, v) of V1 × V2. */
  private def sameBits(g1: LocalGraph, g2: LocalGraph, c: FSimConfig, res: FSimResult): Boolean = {
    val want = reference(g1, g2, c)
    (0 until g1.n).forall(u => (0 until g2.n).forall { v =>
      java.lang.Double.doubleToLongBits(res.score(u, v)) == java.lang.Double.doubleToLongBits(want(u, v))
    })
  }

  /** Pairs of `g1` × `g2` with in-neighbours on both nodes: those with N⁺ = N⁻ on both nodes, and
    * those with N⁺ = N⁻ on one node only.
    */
  private def mutualPairs(g1: LocalGraph, g2: LocalGraph): (Int, Int) = {
    val pairs = for (u <- 0 until g1.n; v <- 0 until g2.n if g1.inAdj(u).nonEmpty && g2.inAdj(v).nonEmpty)
      yield (g1.mutual(u), g2.mutual(v))
    (pairs.count(p => p._1 && p._2), pairs.count(p => p._1 != p._2))
  }

  private def check(cases: Int)(engine: (LocalGraph, LocalGraph, FSimConfig) => FSimResult): Unit = {
    val drawn = collection.mutable.Set[(Variant, Boolean, Boolean)]() // variant, half plan, bounds
    val iters = collection.mutable.Set[Int]()
    var both, one = 0
    val prop = Prop.forAll(mutualCase) { case (g1, g2, c) =>
      drawn += ((c.variant, halfPlan(g1, g2, c), c.ub.isDefined))
      iters ++= c.exactIters
      val (b, o) = mutualPairs(g1, g2); both += b; one += o
      sameBits(g1, g2, c, engine(g1, g2, c))
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(cases).withWorkers(1)
      .withInitialSeed(Seed(20210419L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
    assert(both > 0 && one > 0, s"pairs mutual on both nodes, with neighbours: $both; on one node: $one")
    assert(iters == Set(1, 2, 3), s"exact iterations: $iters")
    if (cases >= 100) {
      val halves = Seq(Variant.B, Variant.BJ, Variant.RoleSimCfg)
      val want = for (v <- Variant.paper ++ Seq(Variant.SimRankCfg, Variant.RoleSimCfg); half <- Seq(false, true)
                      if !half || halves.contains(v); ub <- Seq(false, true)) yield (v, half, ub)
      assert(want.toSet.subsetOf(drawn), s"missing (variant, half plan, bounds): ${want.toSet -- drawn}")
    }
  }

  test("shared in sides give FSimLocal the scores of computing both sides, bit for bit") {
    check(400)(FSimLocal.compute)
  }

  test("shared in sides give FSimSpark the scores of computing both sides, bit for bit") {
    check(30)(FSimSpark.compute(spark, _, _, _))
  }
}
