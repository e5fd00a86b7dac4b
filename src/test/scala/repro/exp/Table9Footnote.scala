package repro.exp

import repro.align.Aligner
import repro.core.{ExactSimulation, Variant}
import repro.graph.LocalGraph

/** Table 9's footnote, called by `AlignersSpec` and the Table 9 bench. */
object Table9Footnote {

  /** The Table-9 footnote check: exact bisimulation between versions yields
    * 0% F1 — no cross-version pair is exactly bisimilar under churn. Returns
    * the F1 of aligning by the exact b-simulation relation.
    */
  def exactBisimF1(g1: LocalGraph, g2: LocalGraph): Double = {
    val r = ExactSimulation.relation(g1, g2, Variant.B)
    val res = (0 until g1.n).map(u => u -> r(u).stream().toArray.toSeq).toMap
    100.0 * Aligner.f1Identity(g1, res)
  }

  /** The footnote's printed line for an exact-bisimulation F1 of `f1` percent. */
  def render(f1: Double): String = f"exact bisimulation alignment F1: paper 0.0%%, measured $f1%.1f%%"
}
