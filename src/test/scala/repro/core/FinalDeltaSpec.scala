package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graph.LocalGraph

/** The sweeps report the max |Δ| of their own ranges, and the engines take
  * the max over the ranges. So `finalDelta` of a run of exactly k sweeps must
  * equal max |x_k − x_(k−1)| over the maintained pairs, recounted from the
  * runs of k − 1 and k sweeps, bit for bit: for every variant, with and
  * without upper-bound pruning, on both engines, for full and half plans.
  */
class FinalDeltaSpec extends SparkSpec {

  private val configs: Seq[FSimConfig] =
    Variant.paper.map(FSimConfig(_, wPlus = 0.4, wMinus = 0.4, theta = 1.0)) ++
      Seq(SimRankRoleSim.simRankConfig(), SimRankRoleSim.roleSimConfig())

  private val engines: Seq[(String, (LocalGraph, LocalGraph, FSimConfig) => FSimResult)] =
    Seq("local" -> FSimLocal.compute, "spark" -> (FSimSpark.compute(spark, _, _, _)))

  private val (g1, g2) = (TestGraphs.uniform(9, 27, 2, 3), TestGraphs.uniform(10, 30, 2, 80))

  /** max |x − y| over the maintained pairs of two runs of one plan, 0 if there are none. */
  private def recount(x: FSimResult, y: FSimResult): Double = {
    val (px, py) = (x.pairs.toSeq, y.pairs.toSeq)
    assert(px.map(p => (p._1, p._2)) === py.map(p => (p._1, p._2)))
    px.zip(py).map { case ((_, _, a), (_, _, b)) => math.abs(a - b) }.maxOption.getOrElse(0.0)
  }

  private def bits(d: Double) = java.lang.Double.doubleToLongBits(d)

  for (base <- configs; ub <- Seq(None, Some(UbConfig(alpha = 0.2, beta = 0.5))); (engine, run) <- engines)
    test(s"finalDelta of k sweeps is max |x_k − x_(k−1)|: χ=${base.variant.name}, ub=$ub, $engine") {
      for ((a, b) <- Seq((g1, g2), (g1, g1))) {
        val runs = (0 to 3).map(k => run(a, b, base.copy(ub = ub, exactIters = Some(k))))
        for (k <- 1 to 3)
          assert(bits(runs(k).finalDelta) === bits(recount(runs(k), runs(k - 1))), s"k = $k, G1 = G2: ${a eq b}")
        assert(runs(3).finalDelta > 0.0, s"G1 = G2: ${a eq b}")
      }
    }

  test("the UbConfig runs above prune pairs for every variant") {
    for (base <- configs) {
      val c = base.copy(exactIters = Some(0))
      assert(Seq((g1, g2), (g1, g1)).exists { case (a, b) =>
        FSimLocal.compute(a, b, c.copy(ub = Some(UbConfig(alpha = 0.2, beta = 0.5)))).numPairs <
          FSimLocal.compute(a, b, c).numPairs
      }, s"χ=${base.variant.name}")
    }
  }
}
