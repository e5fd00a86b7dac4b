package repro.exp

import repro.core._
import repro.graph.{GraphGen, LocalGraph}
import repro.util.Stats

/** Table 5: sensitivity of FSimχ to the initialization / label function —
  * Pearson's correlation between the score vectors produced under the
  * indicator (L_I), normalized edit distance (L_E), and Jaro-Winkler (L_J)
  * functions, for all four variants, on a NELL-like graph (θ=0, w⁺=w⁻=0.4,
  * all-pairs candidates exactly as the paper's sensitivity protocol).
  */
object Table5 {

  /** Paper's coefficients (NELL). */
  val paper: Map[(String, String), Double] = Map(
    ("L_I-L_E", "s") -> 0.990, ("L_I-L_E", "dp") -> 0.982,
    ("L_I-L_E", "b") -> 0.979, ("L_I-L_E", "bj") -> 0.969,
    ("L_I-L_J", "s") -> 0.967, ("L_I-L_J", "dp") -> 0.950,
    ("L_I-L_J", "b") -> 0.937, ("L_I-L_J", "bj") -> 0.922,
    ("L_J-L_E", "s") -> 0.985, ("L_J-L_E", "dp") -> 0.977,
    ("L_J-L_E", "b") -> 0.975, ("L_J-L_E", "bj") -> 0.962)

  /** NELL-like instance scaled for the all-pairs (θ=0) protocol; documented
    * in DESIGN.md §3 (hierarchical string labels give L_E/L_J real signal).
    */
  def graph(): LocalGraph =
    GraphGen.generate(
      GraphGen.Config("NELL-t5", 380, 780, 60, 0.6, hierarchicalLabels = true), seed = 42L)

  final case class Row(pair: String, variant: String, coeff: Double)

  def compute(): Seq[Row] = {
    val g = graph()
    val inits = Seq(LabelSim.Indicator, LabelSim.EditDistance, LabelSim.JaroWinkler)
    val rows = for (variant <- Variant.paper) yield {
      val scores: Map[String, Array[Double]] = inits.map { l =>
        val res = FSimLocal.compute(g, g,
          FSimConfig(variant, wPlus = 0.4, wMinus = 0.4, labelSim = l, theta = 0.0))
        l.name -> res.pairs.map(_._3).toArray
      }.toMap
      Seq(
        Row("L_I-L_E", variant.name, Stats.pearson(scores("L_I"), scores("L_E"))),
        Row("L_I-L_J", variant.name, Stats.pearson(scores("L_I"), scores("L_J"))),
        Row("L_J-L_E", variant.name, Stats.pearson(scores("L_J"), scores("L_E"))))
    }
    rows.flatten
  }

  def render(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb.append("Table 5 — Pearson's correlation across initialization functions (NELL-like)\n")
    sb.append(f"${"pair"}%-10s${"variant"}%-9s${"paper"}%-8s${"measured"}%-9s\n")
    for (r <- rows) {
      sb.append(f"${r.pair}%-10s${r.variant}%-9s${paper((r.pair, r.variant))}%-8.3f${r.coeff}%-9.3f\n")
    }
    sb.toString
  }
}
