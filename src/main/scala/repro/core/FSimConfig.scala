package repro.core

/** Upper-bound updating (paper §3.4): candidate pairs whose Eq.-6 upper
  * bound is below `beta` are not maintained; a pruned pair's score is fixed
  * at `alpha` times that bound, which is what any mapping that needs it reads,
  * and the result leaves it out. Both lie in [0, 1]. Paper defaults after
  * the sensitivity study: α = 0, β = 0.5.
  */
final case class UbConfig(alpha: Double = 0.0, beta: Double = 0.5) {
  require(alpha >= 0 && alpha <= 1, s"need 0 <= alpha <= 1, got $alpha")
  require(beta >= 0 && beta <= 1, s"need 0 <= beta <= 1, got $beta")
}

/** Configuration of an FSimχ computation (Eq. 1/3 and Remark 2).
  *
  * @param variant    χ ∈ {s, dp, b, bj} (or a §4.3 configuration, which
  *                   also fixes FSim⁰, the label term and diagonal pinning;
  *                   see [[FSimPlan]])
  * @param wPlus      weight of the out-neighbor term, w⁺
  * @param wMinus     weight of the in-neighbor term, w⁻
  * @param labelSim   L(·); also the default initialization FSim⁰ = L
  * @param theta      label-constraint threshold θ for the mapping operator
  * @param epsilon    convergence threshold ε > 0 on the max score change
  * @param exactIters when set, run exactly this many (≥ 0) iterations and
  *                   skip the ε test — used by the k-bisimulation theorem
  *                   (FSim_b^k)
  * @param ub         upper-bound updating, if enabled
  */
final case class FSimConfig(
    variant: Variant,
    wPlus: Double = 0.4,
    wMinus: Double = 0.4,
    labelSim: LabelSim = LabelSim.Indicator,
    theta: Double = 0.0,
    epsilon: Double = 0.01,
    exactIters: Option[Int] = None,
    ub: Option[UbConfig] = None
) {
  require(wPlus >= 0 && wPlus < 1, s"need 0 <= w+ < 1, got $wPlus")
  require(wMinus >= 0 && wMinus < 1, s"need 0 <= w- < 1, got $wMinus")
  require(wPlus + wMinus > 0 && wPlus + wMinus < 1, s"need 0 < w+ + w- < 1")
  require(theta >= 0 && theta <= 1, s"need 0 <= theta <= 1")
  require(epsilon > 0, s"need epsilon > 0, got $epsilon")
  require(exactIters.forall(_ >= 0), s"need exactIters >= 0, got $exactIters")

  /** Weight of the label term, 1 − w⁺ − w⁻. */
  def wLabel: Double = 1.0 - wPlus - wMinus

  /** Corollary 1: convergence within ⌈log_{w⁺+w⁻} ε⌉ iterations. */
  def iterationBound: Int =
    math.ceil(math.log(epsilon) / math.log(wPlus + wMinus)).toInt.max(1)
}
