package repro.core

import repro.graph.LocalGraph

/** Direct reference implementations of SimRank (Jeh & Widom 2002) and
  * RoleSim (Jin et al. 2011), the oracles for the §4.3 configurations in
  * [[SimRankRoleSim]]: tests compare these against FSimLocal run with
  * `simRankConfig` / `roleSimConfig`.
  */
object DirectSimRankRoleSim {

  /** SimRank with decay c on a single digraph: s(u,u)=1 and
    * s_k(u,v) = c/(|I(u)||I(v)|) Σ_{u'∈I(u),v'∈I(v)} s_{k-1}(u',v'),
    * 0 when either in-neighborhood is empty.
    */
  def simRank(g: LocalGraph, c: Double = 0.8, iters: Int = 10): Array[Array[Double]] = {
    val n = g.n
    var prev = Array.tabulate(n, n)((u, v) => if (u == v) 1.0 else 0.0)
    for (_ <- 1 to iters) {
      val next = Array.tabulate(n, n) { (u, v) =>
        if (u == v) 1.0
        else {
          val iu = g.inAdj(u); val iv = g.inAdj(v)
          if (iu.isEmpty || iv.isEmpty) 0.0
          else {
            var s = 0.0
            for (x <- iu; y <- iv) s += prev(x)(y)
            c * s / (iu.length.toDouble * iv.length)
          }
        }
      }
      prev = next
    }
    prev
  }

  /** RoleSim with decay β on the *undirected* view of g:
    * r_k(u,v) = (1-β)·maxMatch(r_{k-1})/max(d(u),d(v)) + β, greedy matching.
    * Initialization min(d)/max(d) as in the original paper.
    */
  def roleSim(g: LocalGraph, beta: Double = 0.2, iters: Int = 10): Array[Array[Double]] = {
    val n = g.n
    val adj = Array.tabulate(n)(g.undirectedNeighbors)
    def d(u: Int) = adj(u).length
    var prev = Array.tabulate(n, n) { (u, v) =>
      if (math.max(d(u), d(v)) == 0) 1.0 else math.min(d(u), d(v)).toDouble / math.max(d(u), d(v))
    }
    // the full d(u) × d(v) block of cells, in (a, b) order
    val maxD = adj.map(_.length).maxOption.getOrElse(0)
    val (ca, cb) = (new Array[Int](maxD * maxD), new Array[Int](maxD * maxD))
    val scratch = new Matching.Scratch
    for (_ <- 1 to iters) {
      val next = Array.tabulate(n, n) { (u, v) =>
        if (d(u) == 0 && d(v) == 0) (1 - beta) * 1.0 + beta
        else if (d(u) == 0 || d(v) == 0) beta
        else {
          val w = scratch.weights(d(u) * d(v))
          var k = 0
          for (a <- 0 until d(u); b <- 0 until d(v)) {
            ca(k) = a; cb(k) = b; w(k) = prev(adj(u)(a))(adj(v)(b)); k += 1
          }
          val raw = Matching.mapRaw(Variant.RoleSimCfg, ca, cb, 0, k, w, Array.range(0, k), d(u), d(v), scratch)
          (1 - beta) * raw / math.max(d(u), d(v)) + beta
        }
      }
      prev = next
    }
    prev
  }
}
