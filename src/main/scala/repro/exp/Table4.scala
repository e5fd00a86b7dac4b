package repro.exp

import repro.graph.{GraphGen, LocalGraph}

/** Table 4: dataset statistics. We report the statistics of our synthetic
  * scaled stand-ins next to the paper's originals (DESIGN.md §3 documents
  * the scaling). Each row is read off the generated [[LocalGraph]]
  * ([[row]], DuckDB-oracle-checked in GraphFramesSpec).
  */
object Table4 {

  /** Paper's Table 4 rows: name -> (|E|, |V|, |Σ|, d, D+, D-). */
  val paper: Seq[(String, (Long, Long, Long, Double, Long, Long))] = Seq(
    "Yeast" -> (7182L, 2361L, 13L, 3.0, 60L, 47L),
    "Cora" -> (91500L, 23166L, 70L, 4.0, 104L, 376L),
    "Wiki" -> (119882L, 4592L, 120L, 26.0, 294L, 1551L),
    "JDK" -> (150985L, 6434L, 41L, 23.0, 375L, 32507L),
    "NELL" -> (154213L, 75492L, 269L, 2.0, 1011L, 1909L),
    "GP" -> (298564L, 144879L, 8L, 2.0, 191L, 18553L),
    "Amazon" -> (1788725L, 554790L, 82L, 3.0, 5L, 549L),
    "ACMCit" -> (9671895L, 1462947L, 72000L, 7.0, 809L, 938039L))

  final case class Row(name: String, e: Long, v: Long, sigma: Long,
                       d: Double, dOut: Long, dIn: Long)

  /** Statistics of `g`: |E|, |V|, |Σ|, d = |E|/|V| rounded half-up to two
    * decimals, and the maximum out- and in-degree D⁺, D⁻ (0 without edges).
    */
  def row(name: String, g: LocalGraph): Row = {
    def maxLen(adj: Array[Array[Int]]): Long = adj.iterator.map(_.length.toLong).maxOption.getOrElse(0L)
    val d = BigDecimal(g.m.toDouble / g.n).setScale(2, BigDecimal.RoundingMode.HALF_UP).toDouble
    Row(name, g.m, g.n.toLong, g.sigma.length.toLong, d, maxLen(g.outAdj), maxLen(g.inAdj))
  }

  def compute(): Seq[Row] =
    GraphGen.datasets.map(cfg => row(cfg.name, GraphGen.generate(cfg, seed = 42L)))

  def render(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb.append("Table 4 — dataset statistics: paper original vs scaled synthetic stand-in\n")
    sb.append(f"${"dataset"}%-9s| ${"|E| paper/ours"}%-22s| ${"|V| paper/ours"}%-20s| " +
      f"${"|Σ| p/o"}%-14s| ${"d p/o"}%-12s| ${"D+ p/o"}%-13s| ${"D- p/o"}%-12s\n")
    for (r <- rows) {
      val (pe, pv, ps, pd, pdo, pdi) = paper.find(_._1 == r.name).get._2
      sb.append(f"${r.name}%-9s| $pe%9d/${r.e}%-10d| $pv%8d/${r.v}%-9d| " +
        f"$ps%6d/${r.sigma}%-5d| $pd%4.1f/${r.d}%-5.1f| $pdo%6d/${r.dOut}%-5d| $pdi%6d/${r.dIn}%-5d\n")
    }
    sb.toString
  }
}
