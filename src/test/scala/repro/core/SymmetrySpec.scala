package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import repro.SparkSpec
import repro.graph.{GraphFrames, LocalGraph}

/** P3 (χ-conditional symmetry) bit for bit, for b, bj and the §4.3 RoleSim
  * configuration on G1 = G2, and the half plan it licenses: a run with
  * `g1 eq g2` keeps only the pairs u ≤ v and mirrors the rest, a run on a
  * structural copy of the graph keeps every pair. Both must give the same
  * bits.
  */
class SymmetrySpec extends SparkSpec {

  private def copyOf(g: LocalGraph): LocalGraph =
    LocalGraph.fromEdges(g.labels, g.edges.toSeq)

  /** (u, v, score bits) of every maintained pair, in key order. */
  private def bits(res: FSimResult): Seq[(Int, Int, Long)] =
    res.pairs.map { case (u, v, s) => (u, v, java.lang.Double.doubleToLongBits(s)) }.toSeq

  private def symmetric(res: FSimResult): Boolean = {
    val b = bits(res)
    b.map { case (u, v, s) => (v, u, s) }.sortBy(p => (p._1, p._2)) == b
  }

  /** A dense labelled digraph of 1–12 nodes over 1–3 labels of 1–3 letters,
    * with self-loops, so that rows of a block hold several weight-1 cells;
    * θ ∈ {0, 1, 0.5 with L_E or L_J}, with and without UbConfig(0.2, 0.5).
    */
  private val p3Case: Gen[(LocalGraph, FSimConfig)] = for {
    n <- Gen.choose(1, 12)
    m <- Gen.choose(0, 4 * n)
    edges <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    sigma <- Gen.oneOf(Seq("a"), Seq("a", "b"), Seq("ab", "ba", "abb"))
    labels <- Gen.listOfN(n, Gen.oneOf(sigma))
    variant <- Gen.oneOf(Variant.B, Variant.BJ, Variant.RoleSimCfg)
    (theta, labelSim) <- Gen.oneOf((0.0, LabelSim.Indicator), (1.0, LabelSim.Indicator),
      (0.5, LabelSim.EditDistance), (0.5, LabelSim.JaroWinkler))
    ub <- Gen.oneOf(None, Some(UbConfig(alpha = 0.2, beta = 0.5)))
  } yield {
    val base =
      if (variant == Variant.RoleSimCfg) SimRankRoleSim.roleSimConfig()
      else FSimConfig(variant, wPlus = 0.4, wMinus = 0.4, epsilon = 1e-6)
    (LocalGraph.fromEdges(labels.toArray, edges), base.copy(theta = theta, labelSim = labelSim, ub = ub))
  }

  test("P3 bitwise: full-plan b, bj and RoleSim scores on G1 = G2 are symmetric, and the half plan equals them") {
    val drawn = collection.mutable.Set[(Variant, Double, Boolean)]()
    var severalOnes = 0
    val prop = Prop.forAll(p3Case) { case (g, c) =>
      drawn += ((c.variant, c.theta, c.ub.isDefined))
      val full = FSimLocal.compute(g, copyOf(g), c)
      val half = FSimLocal.compute(g, g, c)
      val ones = full.pairs.filter(_._3 >= 1.0 - 1e-9).toSeq.groupBy(_._1)
      if (ones.exists(_._2.size >= 2)) severalOnes += 1
      symmetric(full) && bits(half) == bits(full) &&
        half.iterations == full.iterations && half.finalDelta == full.finalDelta
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withWorkers(1)
      .withInitialSeed(Seed(20210419L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
    assert(drawn.size === 3 * 3 * 2, s"not every variant, θ and bound setting drawn: $drawn")
    assert(severalOnes > 0, "no node with two score-1 partners")
  }

  test("P3 bitwise through FSimSpark on the same frames, which runs the half plan") {
    // four sweeps each: a Spark job per sweep is what costs here
    val prop = Prop.forAll(p3Case.map { case (g, c) => (g, c.copy(exactIters = Some(4))) }) { case (g, c) =>
      val (nodes, edges) = (GraphFrames.nodesDF(spark, g), GraphFrames.edgesDF(spark, g))
      val dist = FSimSpark.compute(spark, nodes, edges, nodes, edges, c)
      bits(dist) == bits(FSimLocal.compute(g, copyOf(g), c))
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(12).withWorkers(1)
      .withInitialSeed(Seed(20210419L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
  }
}
