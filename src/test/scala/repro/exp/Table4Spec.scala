package repro.exp

import repro.SparkSpec
import repro.graph.LocalGraph

/** Table 4's statistics rows, pinned: |E|, |V|, |Σ|, d rounded half-up to
  * two decimals, and the maximum out- and in-degree of each generated
  * stand-in.
  */
class Table4Spec extends SparkSpec {

  test("Table 4 rows are pinned") {
    assert(Table4.compute() === Seq(
      Table4.Row("Yeast", 1795L, 590L, 13L, 3.04, 27L, 22L),
      Table4.Row("Cora", 1830L, 463L, 67L, 3.95, 36L, 39L),
      Table4.Row("Wiki", 29970L, 1148L, 116L, 26.11, 495L, 494L),
      Table4.Row("JDK", 37746L, 1608L, 41L, 23.47, 1105L, 1093L),
      Table4.Row("NELL", 1542L, 754L, 97L, 2.05, 37L, 44L),
      Table4.Row("GP", 2985L, 1448L, 8L, 2.06, 127L, 140L),
      Table4.Row("Amazon", 35774L, 11095L, 82L, 3.22, 13L, 16L),
      Table4.Row("ACMCit", 19343L, 2925L, 144L, 6.61, 794L, 804L)))
  }

  test("d rounds a tie half up, and a graph without edges has degrees 0") {
    // |E|/|V| = 1/8 = 0.125: half-up gives 0.13, half-even would give 0.12
    val tie = LocalGraph.fromEdges(Array.fill(8)("a"), Seq(0 -> 1))
    assert(Table4.row("tie", tie) === Table4.Row("tie", 1L, 8L, 1L, 0.13, 1L, 1L))
    val empty = LocalGraph.fromEdges(Array("a", "b", "a"), Nil)
    assert(Table4.row("empty", empty) === Table4.Row("empty", 0L, 3L, 2L, 0.0, 0L, 0L))
  }
}
