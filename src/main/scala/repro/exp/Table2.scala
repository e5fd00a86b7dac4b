package repro.exp

import repro.core._
import repro.graph.LocalGraph

/** Table 2: exact ✓/× χ-simulation of (u, v_i) plus fractional scores on the
  * paper's Figure 1.
  *
  * Figure 1 is an image; we reconstruct it from the prose of Examples 1 & 3:
  * u (label A) has out-neighbors {hexagon, hexagon, pentagon} and no
  * in-neighbors; v1 lacks a pentagon neighbor; v2 has one hexagon + pentagon
  * (defeats dp's injectivity); v3 has two hexagons + pentagon + a square
  * (defeats b's converse); v4 has exactly two hexagons + pentagon. The ✓/×
  * matrix of the reconstruction provably matches the paper's; the fractional
  * values differ from the paper's (unknown full topology / parameters) but
  * must satisfy the same shape constraints (✓ ⇔ 1.00, ordering).
  */
object Table2 {

  /** G1 = P: u=0 (A), hex=1, hex=2, pent=3. */
  val g1: LocalGraph = LocalGraph.fromEdges(
    Array("A", "hex", "hex", "pent"),
    Seq((0, 1), (0, 2), (0, 3)))

  /** G2 with v1=0, v2=2, v3=5, v4=10 and their private leaf neighbors. */
  val g2: LocalGraph = LocalGraph.fromEdges(
    Array(
      "A", "hex",                       // v1 = 0
      "A", "hex", "pent",               // v2 = 2
      "A", "hex", "hex", "pent", "sq",  // v3 = 5
      "A", "hex", "hex", "pent"         // v4 = 10
    ),
    Seq((0, 1), (2, 3), (2, 4), (5, 6), (5, 7), (5, 8), (5, 9),
      (10, 11), (10, 12), (10, 13)))

  val u = 0
  val vs: Seq[(String, Int)] = Seq("v1" -> 0, "v2" -> 2, "v3" -> 5, "v4" -> 10)

  /** Paper's Table 2 (✓ as true, fractional score in brackets). */
  val paper: Map[(String, String), (Boolean, Double)] = Map(
    ("s", "v1") -> (false, 0.85), ("s", "v2") -> (true, 1.00),
    ("s", "v3") -> (true, 1.00), ("s", "v4") -> (true, 1.00),
    ("dp", "v1") -> (false, 0.72), ("dp", "v2") -> (false, 0.85),
    ("dp", "v3") -> (true, 1.00), ("dp", "v4") -> (true, 1.00),
    ("b", "v1") -> (false, 0.78), ("b", "v2") -> (true, 1.00),
    ("b", "v3") -> (false, 0.93), ("b", "v4") -> (true, 1.00),
    ("bj", "v1") -> (false, 0.72), ("bj", "v2") -> (false, 0.81),
    ("bj", "v3") -> (false, 0.94), ("bj", "v4") -> (true, 1.00))

  final case class Cell(variant: String, v: String, exact: Boolean, score: Double)

  /** Compute all 16 cells with the exact checker and the local FSim engine, one
    * relation and one run per variant (the Spark engine is cross-checked
    * against it in Table2Bench).
    */
  def compute(): Seq[Cell] = Variant.paper.flatMap { variant =>
    val exact = ExactSimulation.relation(g1, g2, variant)(u)
    val res = FSimLocal.compute(g1, g2,
      FSimConfig(variant, wPlus = 0.4, wMinus = 0.4, theta = 0.0, epsilon = 1e-4))
    vs.map { case (vName, vId) => Cell(variant.name, vName, exact.get(vId), res.score(u, vId)) }
  }

  def render(cells: Seq[Cell]): String = {
    val sb = new StringBuilder
    sb.append("Table 2 — exact χ-simulation and fractional scores, Figure-1 reconstruction\n")
    sb.append(f"${"variant"}%-10s${"pair"}%-8s${"paper"}%-16s${"measured"}%-16s\n")
    for (c <- cells) {
      val (pe, ps) = paper((c.variant, c.v))
      val pairStr = s"(u,${c.v})"
      sb.append(f"${c.variant}%-10s$pairStr%-8s${if (pe) "Y" else "N"}%s ($ps%.2f)      " +
        f"${if (c.exact) "Y" else "N"}%s (${c.score}%.2f)\n")
    }
    sb.toString
  }
}
