package repro.bench

import repro.exp.Table6

/** Bench for Table 6: pattern-matching F1 across query scenarios on the
  * Amazon-like graph (paper §5.4 protocol, scaled per DESIGN.md).
  */
class Table6Bench extends BenchSpec {

  test("Table 6: pattern-matching F1 by scenario (paper vs measured)") {
    val rows = Table6.compute()
    println(Table6.render(rows))
    def f1(s: String, m: String): Double =
      rows.find(r => r.scenario == s && r.matcher == m).get.f1

    // Exact: every exact/complete matcher recovers the query
    for (m <- Seq("TSpan-1", "TSpan-3", "StrongSim", "FSim_s", "FSim_dp"))
      assert(f1("Exact", m) > 85.0, s"Exact $m = ${f1("Exact", m)}")

    // Noisy-E: TSpan-3 tolerates more edge noise than TSpan-1; strong
    // simulation degrades hard; FSim_s stays robust (strength S1)
    assert(f1("Noisy-E", "TSpan-3") >= f1("Noisy-E", "TSpan-1"))
    assert(f1("Noisy-E", "FSim_s") > f1("Noisy-E", "StrongSim") + 10)

    // Noisy-L: TSpan (edge-mismatch only) degrades specifically under label
    // noise (the paper's tool returned no results at all — ours returns
    // partial-credit matches, so we assert the degradation, not zero)
    assert(f1("Noisy-L", "TSpan-3") < f1("Noisy-E", "TSpan-3") - 10)
    assert(f1("Noisy-L", "FSim_s") > f1("Noisy-L", "TSpan-3") + 5)
    assert(f1("Noisy-L", "FSim_s") > f1("Noisy-L", "StrongSim") + 10)
    assert(f1("Noisy-L", "FSim_s") > f1("Noisy-L", "NAGA"))

    // Combined: FSim_s is the most robust overall (strength S2: s beats dp)
    for (m <- Seq("NAGA", "StrongSim", "TSpan-1", "TSpan-3"))
      assert(f1("Combined", "FSim_s") > f1("Combined", m), s"Combined: FSim_s vs $m")
  }
}
