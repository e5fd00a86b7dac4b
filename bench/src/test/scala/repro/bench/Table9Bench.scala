package repro.bench

import repro.exp.{Table9, Table9Footnote}
import repro.graph.RdfVersions

/** Bench for Table 9: RDF graph-alignment F1 across versions. Every aligner,
  * the k-bisimulation baselines included, runs locally.
  */
class Table9Bench extends BenchSpec {

  test("Table 9: alignment F1 (paper vs measured)") {
    val rows = Table9.compute()
    println(Table9.render(rows))
    def f1(p: String, a: String): Double =
      rows.find(r => r.pair == p && r.aligner == a).get.f1

    for (p <- Seq("G1-G2", "G1-G3")) {
      // the paper's headline: FSimχ dominates every baseline
      for (b <- Seq("2-bisim", "4-bisim", "Olap", "GSANA", "FINAL", "EWS")) {
        assert(f1(p, "FSim_b") > f1(p, b), s"$p: FSim_b vs $b")
        assert(f1(p, "FSim_bj") > f1(p, b), s"$p: FSim_bj vs $b")
      }
      // deeper signatures are more brittle under version churn
      assert(f1(p, "4-bisim") <= f1(p, "2-bisim") + 1e-9, s"$p: 4-bisim vs 2-bisim")
      // FSim alignment is strong in absolute terms
      assert(f1(p, "FSim_b") > 70.0, s"$p: FSim_b = ${f1(p, "FSim_b")}")
    }
  }

  test("Table 9 footnote: exact bisimulation aligns (near) nothing across versions") {
    val vs = RdfVersions.generate(n3 = 600)
    val f1 = Table9Footnote.exactBisimF1(vs.g1, vs.g2)
    println(Table9Footnote.render(f1))
    assert(f1 < 5.0, s"exact bisim F1 = $f1")
  }
}
