package repro.exp

import repro.align._
import repro.core._
import repro.graph.RdfVersions

/** Table 9: RDF graph-alignment F1 on evolving versions G1-G2 and G1-G3.
  * Every aligner runs locally: the 2-/4-bisimulation baselines on the exact
  * classes of [[KBisimulation.classes]] over the disjoint union, then the
  * Olap-, GSANA-, FINAL-, EWS-like aligners and FSim_b, FSim_bj. Ground
  * truth: identity on shared node ids.
  */
object Table9 {

  val alignerNames: Seq[String] =
    Seq("2-bisim", "4-bisim", "Olap", "GSANA", "FINAL", "EWS", "FSim_b", "FSim_bj")

  /** Paper's Table 9 (F1 %). */
  val paper: Map[(String, String), Double] = Map(
    ("G1-G2", "2-bisim") -> 19.9, ("G1-G2", "4-bisim") -> 9.1,
    ("G1-G2", "Olap") -> 37.9, ("G1-G2", "GSANA") -> 11.8,
    ("G1-G2", "FINAL") -> 55.2, ("G1-G2", "EWS") -> 70.8,
    ("G1-G2", "FSim_b") -> 97.6, ("G1-G2", "FSim_bj") -> 96.5,
    ("G1-G3", "2-bisim") -> 53.0, ("G1-G3", "4-bisim") -> 10.9,
    ("G1-G3", "Olap") -> 37.6, ("G1-G3", "GSANA") -> 14.9,
    ("G1-G3", "FINAL") -> 52.7, ("G1-G3", "EWS") -> 65.3,
    ("G1-G3", "FSim_b") -> 96.9, ("G1-G3", "FSim_bj") -> 95.6)

  final case class Row(pair: String, aligner: String, f1: Double)

  def aligners: Seq[Aligner] = Seq(
    new KBisimAligner(2),
    new KBisimAligner(4),
    new OlapAligner,
    new GsanaAligner,
    new FinalAligner,
    new EwsAligner,
    new FSimAligner(Variant.B),
    new FSimAligner(Variant.BJ))

  def compute(): Seq[Row] = {
    val vs = RdfVersions.generate(n3 = 1500)
    val pairs = Seq("G1-G2" -> (vs.g1, vs.g2), "G1-G3" -> (vs.g1, vs.g3))
    for ((pname, (a, b)) <- pairs; al <- aligners) yield {
      Row(pname, al.name, 100.0 * Aligner.f1Identity(a, al.align(a, b)))
    }
  }

  def render(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb.append("Table 9 — RDF alignment F1 (%) paper/measured\n")
    sb.append(f"${"pair"}%-8s" + alignerNames.map(n => f"$n%-16s").mkString + "\n")
    for (p <- Seq("G1-G2", "G1-G3")) {
      sb.append(f"$p%-8s")
      for (n <- alignerNames) {
        val mv = rows.find(r => r.pair == p && r.aligner == n).get.f1
        sb.append(f"${f"${paper((p, n))}%.1f" + "/" + f"$mv%.1f"}%-16s")
      }
      sb.append("\n")
    }
    sb.toString
  }
}
