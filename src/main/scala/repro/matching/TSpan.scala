package repro.matching

import repro.graph.LocalGraph
import scala.collection.mutable

/** TSpan-like edit-distance matcher (Zhu et al., SIGMOD'12): enumerate
  * complete label-exact node assignments with at most `maxMissEdges`
  * mismatched query edges, via ordered backtracking with a step budget.
  * Simplified reimplementation of the unavailable original (DESIGN.md §3);
  * like TSpan it tolerates missing *edges* but not label-mismatched *nodes*
  * — so label-noised queries usually produce no result (paper Table 6, "-").
  */
final class TSpanMatcher(maxMissEdges: Int) extends Matcher {
  val name = s"TSpan-$maxMissEdges"
  private val budget = 400000L // backtracking steps per search

  def matchQuery(query: LocalGraph, data: LocalGraph): Map[Int, Int] = {
    // iterative deepening on the miss budget: like TSpan's edit-distance
    // semantics, return a match with the *minimum* number of mismatched
    // edges, trying 0 misses first
    var misses = 0
    while (misses <= maxMissEdges) {
      val res = search(query, data, misses)
      if (res.nonEmpty) return res
      misses += 1
    }
    Map.empty
  }

  private def search(query: LocalGraph, data: LocalGraph, maxMiss: Int): Map[Int, Int] = {
    val nQ = query.n
    val candidates = Array.tabulate(nQ)(q => data.nodesLabelled(query.labels(q)))
    if (candidates.exists(_.isEmpty)) return Map.empty

    // Order: start at the rarest-label node, then expand connectivity-first.
    val order = {
      val chosen = mutable.ArrayBuffer[Int]()
      val inOrder = new Array[Boolean](nQ)
      val start = (0 until nQ).minBy(q => candidates(q).length)
      chosen += start; inOrder(start) = true
      while (chosen.size < nQ) {
        val next = (0 until nQ).filter(!inOrder(_))
          .sortBy(q => (-query.undirectedNeighbors(q).count(inOrder), candidates(q).length))
          .head
        chosen += next; inOrder(next) = true
      }
      chosen.toArray
    }

    val assign = Array.fill(nQ)(-1)
    val used = mutable.HashSet[Int]()
    var steps = 0L
    var best: Option[(Map[Int, Int], Int)] = None

    def missesWithAssigned(q: Int, v: Int): Int = {
      var miss = 0
      for (qa <- query.outAdj(q) if assign(qa) >= 0) if (!data.hasEdge(v, assign(qa))) miss += 1
      for (qa <- query.inAdj(q) if assign(qa) >= 0) if (!data.hasEdge(assign(qa), v)) miss += 1
      miss
    }

    def dfs(pos: Int, misses: Int): Unit = {
      if (best.exists(_._2 <= misses)) return
      if (steps > budget) return
      if (pos == nQ) {
        val m = (0 until nQ).map(q => q -> assign(q)).toMap
        if (best.forall(_._2 > misses)) best = Some((m, misses))
        return
      }
      val q = order(pos)
      // try candidates connected to already-assigned neighbors first
      val connected = mutable.LinkedHashSet[Int]()
      for (qa <- query.outAdj(q) if assign(qa) >= 0) connected ++= data.inAdj(assign(qa))
      for (qa <- query.inAdj(q) if assign(qa) >= 0) connected ++= data.outAdj(assign(qa))
      val candSet = candidates(q)
      val ordered =
        candSet.filter(connected.contains) ++ candSet.filterNot(connected.contains)
      var i = 0
      while (i < ordered.length && steps <= budget && !best.exists(_._2 == 0)) {
        val v = ordered(i)
        if (!used.contains(v)) {
          steps += 1
          val extra = missesWithAssigned(q, v)
          if (misses + extra <= maxMiss) {
            assign(q) = v; used += v
            dfs(pos + 1, misses + extra)
            assign(q) = -1; used -= v
          }
        }
        i += 1
      }
    }

    dfs(0, 0)
    best.map(_._1).getOrElse(Map.empty)
  }
}
