package repro.bench

import repro.exp.Table78

/** Bench for Tables 7 and 8: node-similarity case study on the DBIS-like
  * graph. FSim_bj runs on the Spark engine (largest FSim computation in the
  * suite); one shared `compute` feeds both tables.
  */
class Table78Bench extends BenchSpec {

  private lazy val computed = Table78.compute(spark)

  test("Table 7: top-5 venues similar to WWW per measure") {
    val tops = Table78.table7(computed)
    println(Table78.renderTable7(tops))
    val byMeasure = tops.map(t => t.measure -> t.venues).toMap
    // every measure puts WWW itself first
    for ((m, vs) <- byMeasure) assert(vs.head === "WWW", s"$m ranked ${vs.head} first")
    // the paper's headline: FSim_bj surfaces the duplicate WWW nodes
    val dupCount = byMeasure("FSim_bj").count(_.startsWith("WWW_"))
    assert(dupCount >= 2, s"FSim_bj found only $dupCount duplicates in the top-5")
    // and it finds at least as many duplicates as every baseline (strength S1)
    for (m <- Seq("PCRW", "PathSim", "nSimGram", "FSim_b"))
      assert(dupCount >= byMeasure(m).count(_.startsWith("WWW_")), s"vs $m")
  }

  test("Table 8: nDCG of similarity rankings") {
    val rows = Table78.table8(computed)
    println(Table78.renderTable8(rows))
    val byMeasure = rows.map(r => r.measure -> r.ndcg).toMap
    // the paper's S2 conclusion: FSim_bj is the best similarity measure
    for (m <- Table78.measureNames if m != "FSim_bj")
      assert(byMeasure("FSim_bj") >= byMeasure(m) - 1e-9, s"FSim_bj vs $m")
    // all measures produce informative rankings
    rows.foreach(r => assert(r.ndcg > 0.4, s"${r.measure}: ${r.ndcg}"))
  }
}
