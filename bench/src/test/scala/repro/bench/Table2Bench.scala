package repro.bench

import repro.core._
import repro.exp.Table2

/** Bench for Table 2: Figure-1 fractional χ-simulation scores, computed with
  * both engines, printed paper-vs-measured.
  */
class Table2Bench extends BenchSpec {

  test("Table 2: exact check matrix and fractional scores (paper vs measured)") {
    val cells = Table2.compute()
    println(Table2.render(cells))
    for (c <- cells) {
      val (paperExact, _) = Table2.paper((c.variant, c.v))
      assert(c.exact === paperExact, s"${c.variant} ${c.v}")
      if (paperExact) assert(c.score >= 1.0 - 1e-6) else assert(c.score < 1.0 - 1e-4)
    }
  }

  test("Table 2: Spark engine agrees with the local engine on all 16 cells") {
    for (variant <- Variant.paper) {
      val cfg = FSimConfig(variant, 0.4, 0.4, theta = 0.0, exactIters = Some(12))
      val local = FSimLocal.compute(Table2.g1, Table2.g2, cfg)
      val dist = FSimSpark.compute(spark, Table2.g1, Table2.g2, cfg).collectScores()
      for ((_, vId) <- Table2.vs)
        assert(math.abs(dist((Table2.u.toLong, vId.toLong)) - local.score(Table2.u, vId)) < 1e-9)
    }
  }
}
