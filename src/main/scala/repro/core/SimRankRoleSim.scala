package repro.core

import repro.graph.LocalGraph

/** The FSimχ configurations of SimRank (Jeh & Widom 2002) and RoleSim
  * (Jin et al. 2011), the paper's §4.3 claim that the framework can be
  * *configured* to compute both. Tests compare them against the direct
  * references in `DirectSimRankRoleSim` (test sources).
  */
object SimRankRoleSim {

  /** The FSimχ configuration of SimRank (§4.3): w⁺=0, w⁻=c, M=S1×S2,
    * Ω=|S1||S2|; [[Variant.SimRankCfg]] also sets L≡0, init = identity and
    * pins the diagonal.
    */
  def simRankConfig(c: Double = 0.8, iters: Int = 10): FSimConfig = FSimConfig(
    variant = Variant.SimRankCfg,
    wPlus = 1e-12, // framework requires w+ + w- > 0 and each < 1; out side is ~0
    wMinus = c,
    exactIters = Some(iters)
  )

  /** The FSimχ configuration of RoleSim (§4.3): undirected neighbors as
    * out-neighbors (use [[undirectedView]]), w⁻→0, greedy matching with
    * Ω = max degree; [[Variant.RoleSimCfg]] also sets L≡1 and init
    * min(d)/max(d).
    */
  def roleSimConfig(beta: Double = 0.2, iters: Int = 10): FSimConfig = FSimConfig(
    variant = Variant.RoleSimCfg,
    wPlus = 1 - beta,
    wMinus = 1e-12,
    exactIters = Some(iters)
  )

  /** Replace adjacency with the undirected closure — the graph model
    * adaptation §4.3 uses for RoleSim and the WL test. Every undirected edge
    * is added both ways, so in-edges equal out-edges; RoleSim's w⁻ = 1e-12
    * keeps the in-side out of the scores. All labels are collapsed
    * (label-free model).
    */
  def undirectedView(g: LocalGraph): LocalGraph = {
    val edges = (0 until g.n).flatMap(u => g.undirectedNeighbors(u).map(v => (u, v)))
    LocalGraph.fromEdges(Array.fill(g.n)("_"), edges)
  }
}
