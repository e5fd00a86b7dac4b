package repro.bench

import repro.exp.Table4

/** Bench for Table 4: statistics of the scaled synthetic dataset stand-ins,
  * read off the generated local graphs, printed next to the paper's
  * originals.
  */
class Table4Bench extends BenchSpec {

  test("Table 4: dataset statistics (paper vs scaled synthetic)") {
    val rows = Table4.compute()
    println(Table4.render(rows))
    assert(rows.size === 8)
    for (r <- rows) {
      val (pe, pv, _, _, _, _) = Table4.paper.find(_._1 == r.name).get._2
      // scaled stand-ins keep the |E|/|V| ratio within 2.5x of the original
      val paperRatio = pe.toDouble / pv
      val ourRatio = r.e.toDouble / r.v
      assert(ourRatio > paperRatio / 2.5 && ourRatio < paperRatio * 2.5,
        s"${r.name}: ratio $ourRatio vs $paperRatio")
      // skew survives scaling: max degree well above average where the paper's is
      if (r.name == "JDK" || r.name == "ACMCit")
        assert(r.dIn > 10 * r.d, s"${r.name} lost its in-degree skew")
    }
  }
}
