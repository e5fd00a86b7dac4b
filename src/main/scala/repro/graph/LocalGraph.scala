package repro.graph

import scala.collection.mutable
import scala.util.Random

/** Compact in-memory node-labeled directed graph (the paper's data model,
  * Section 2): nodes are 0..n-1, each with a string label; edges are directed.
  *
  * This is the substrate every exact algorithm (exact χ-simulation, strong
  * simulation, the pattern-matching/alignment baselines) runs on, and the
  * input of both FSimχ engines; `FSimSpark`'s frame overload builds it with [[GraphFrames.toLocal]].
  *
  * Adjacency is CSR-like: `outAdj(u)` / `inAdj(u)` are sorted arrays. The
  * label views (Σ, label ids, label buckets, neighbour labels), the degree arrays, the
  * [[mutual]] flags and the undirected neighbours are built once per graph, on first use, and
  * are not serialised.
  * Every graph's adjacency is built by [[LocalGraph.fromEdges]], which checks
  * its input; `duplicateEdges` counts the repeated edges it dropped.
  */
final class LocalGraph private (
    val labels: Array[String],
    val outAdj: Array[Array[Int]],
    val inAdj: Array[Array[Int]],
    val duplicateEdges: Int = 0
) extends Serializable {

  /** Number of nodes. */
  def n: Int = labels.length

  /** Number of directed edges. */
  lazy val m: Long = outAdj.iterator.map(_.length.toLong).sum

  def outDeg(u: Int): Int = outAdj(u).length
  def inDeg(u: Int): Int  = inAdj(u).length

  /** Every node's |N⁺(u)| and |N⁻(u)|, built once per graph. */
  @transient lazy val outDegrees: Array[Int] = java.util.stream.IntStream.range(0, n).map(outDeg).toArray
  @transient lazy val inDegrees: Array[Int] = java.util.stream.IntStream.range(0, n).map(inDeg).toArray

  /** Per node, whether N⁺(u) = N⁻(u): every edge at u runs both ways, as on a bidirected graph. */
  @transient lazy val mutual: Array[Boolean] = Array.tabulate(n)(u => java.util.Arrays.equals(outAdj(u), inAdj(u)))

  /** Σ: the distinct labels, in first-occurrence order. */
  @transient lazy val sigma: IndexedSeq[String] = labels.distinct.toIndexedSeq
  @transient private lazy val idOf: Map[String, Int] = sigma.zipWithIndex.toMap

  /** Each node's label as an index into [[sigma]]. */
  @transient lazy val labelId: Array[Int] = labels.map(idOf)

  /** byId(a): the nodes labelled sigma(a), ascending. */
  @transient private lazy val byId: Array[Array[Int]] = {
    val b = Array.fill(sigma.length)(Array.newBuilder[Int])
    for (u <- 0 until n) b(labelId(u)) += u
    b.map(_.result())
  }

  /** The nodes labelled `l`, ascending; empty if no node is. */
  def nodesLabelled(l: String): Array[Int] = idOf.get(l).fold(Array.emptyIntArray)(byId(_))

  /** All edges as (src, dst) pairs. */
  def edges: Iterator[(Int, Int)] =
    (0 until n).iterator.flatMap(u => outAdj(u).iterator.map(v => (u, v)))

  def hasEdge(u: Int, v: Int): Boolean =
    java.util.Arrays.binarySearch(outAdj(u), v) >= 0

  @transient private lazy val undirected = Array.tabulate(n)(u => (outAdj(u) ++ inAdj(u)).distinct.sorted)

  /** Undirected neighbors, ascending (used by RoleSim / WL-test adaptations, §4.3). */
  def undirectedNeighbors(u: Int): Array[Int] = undirected(u)

  @transient private lazy val nbrLabels =
    Array.tabulate(n)(u => undirected(u).map(labels).groupBy(identity).view.mapValues(_.length).toMap)

  /** The labels of u's undirected neighbours, each with how many of them carry it. */
  def neighborLabels(u: Int): Map[String, Int] = nbrLabels(u)

  /** Undirected shortest-path distance from `src` to every node, by BFS:
    * -1 for nodes that are unreachable or farther than `radius`.
    */
  def distances(src: Int, radius: Int = Int.MaxValue): Array[Int] = {
    val dist = new Array[Int](n)
    java.util.Arrays.fill(dist, -1)
    dist(src) = 0
    val queue = mutable.Queue(src)
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      if (dist(u) < radius)
        for (w <- undirectedNeighbors(u) if dist(w) < 0) { dist(w) = dist(u) + 1; queue += w }
    }
    dist
  }

  /** Nodes within (shortest-path, undirected) distance `radius` of `center`,
    * ascending — the ball used by strong simulation (Ma et al.), G[v, δ_Q].
    */
  def ball(center: Int, radius: Int): Array[Int] = {
    val dist = distances(center, radius)
    // an IntStream scans the n slots unboxed; strong simulation asks for
    // up to 300 balls per query
    java.util.stream.IntStream.range(0, n).filter(dist(_) >= 0).toArray
  }

  /** Induced subgraph on `nodes`; returns the subgraph and the mapping from
    * new node id to original node id.
    */
  def inducedSubgraph(nodes: Array[Int]): (LocalGraph, Array[Int]) = {
    val sorted = nodes.distinct.sorted
    val index  = sorted.zipWithIndex.toMap
    val kept   = for (i <- sorted.indices; v <- outAdj(sorted(i)); j <- index.get(v)) yield (i, j)
    (LocalGraph.fromEdges(sorted.map(labels), kept), sorted)
  }

  /** Undirected diameter of this (assumed small, connected) graph — used as
    * δ_Q by strong simulation. For disconnected graphs returns the maximum
    * eccentricity within components.
    */
  def diameter: Int = (0 until n).map(distances(_).max).maxOption.getOrElse(0)

  /** Extract a connected query subgraph of about `size` nodes by undirected
    * BFS from a random start. Returns (query, origIds) where origIds(q) is the
    * ground-truth match of query node q. Used by the Table-6 workload.
    */
  def sampleConnectedSubgraph(size: Int, rnd: Random): (LocalGraph, Array[Int]) = {
    var attempt = 0
    while (attempt < 64) {
      val start   = rnd.nextInt(n)
      val chosen  = mutable.LinkedHashSet(start)
      val frontier = mutable.ArrayBuffer(start)
      while (chosen.size < size && frontier.nonEmpty) {
        val u = frontier.remove(rnd.nextInt(frontier.length))
        val nbrs = rnd.shuffle(undirectedNeighbors(u).toSeq)
        for (w <- nbrs if chosen.size < size && !chosen.contains(w)) {
          chosen += w; frontier += w
        }
      }
      if (chosen.size == size) return inducedSubgraph(chosen.toArray)
      attempt += 1
    }
    // Fall back to whatever component we can reach.
    val start = rnd.nextInt(n)
    inducedSubgraph(ball(start, size))
  }

  /** Copy with `k` random edges added (structural noise, §5.2 / Table 6); an empty graph has none to add. */
  def withAddedEdges(k: Int, rnd: Random): LocalGraph = {
    if (n == 0) return this
    val added = mutable.HashSet[(Int, Int)]()
    var tries = 0
    while (added.size < k && tries < 100 * (k + 1)) {
      val u = rnd.nextInt(n); val v = rnd.nextInt(n)
      if (u != v && !hasEdge(u, v)) added += ((u, v))
      tries += 1
    }
    LocalGraph.fromEdges(labels, edges.toSeq ++ added)
  }

  /** Copy with `k` random edges removed. */
  def withRemovedEdges(k: Int, rnd: Random): LocalGraph = {
    val all = edges.toArray
    val keep = rnd.shuffle(all.indices.toList).drop(math.min(k, all.length)).map(all(_))
    LocalGraph.fromEdges(labels, keep)
  }

  /** Copy, sharing this graph's checked adjacency, with `k` random node labels
    * replaced by another label drawn from the alphabet `sigma` (label noise, Table 6's Noisy-L).
    */
  def withPerturbedLabels(k: Int, sigma: IndexedSeq[String], rnd: Random): LocalGraph = {
    val lbl = labels.clone()
    val victims = rnd.shuffle((0 until n).toList).take(math.min(k, n))
    for (u <- victims) {
      var nl = sigma(rnd.nextInt(sigma.length))
      var guard = 0
      while (nl == lbl(u) && guard < 16) { nl = sigma(rnd.nextInt(sigma.length)); guard += 1 }
      lbl(u) = nl
    }
    new LocalGraph(lbl, outAdj, inAdj)
  }

  /** Disjoint union with `other` (other's ids shifted by `n`). */
  def disjointUnion(other: LocalGraph): LocalGraph =
    LocalGraph.fromEdges(labels ++ other.labels, (edges ++ other.edges.map { case (u, v) => (u + n, v + n) }).toSeq)
}

object LocalGraph {

  /** Build from a label array and an edge list. Duplicate edges are dropped
    * (the paper's graphs are simple digraphs) and counted in
    * `duplicateEdges`; self-loops are kept. Throws IllegalArgumentException
    * on a null label or on an endpoint that is not a node id 0..n-1.
    */
  def fromEdges(labels: Array[String], edges: Seq[(Int, Int)]): LocalGraph = {
    val n = labels.length
    require(!labels.contains(null), s"node ${labels.indexOf(null)} has a null label")
    for ((u, v) <- edges)
      require(u >= 0 && u < n && v >= 0 && v < n,
        s"edge ($u, $v) has an endpoint outside the node ids 0..${n - 1}")
    val dedup = edges.distinct
    val out = Array.fill(n)(mutable.ArrayBuffer[Int]())
    val in  = Array.fill(n)(mutable.ArrayBuffer[Int]())
    for ((u, v) <- dedup) { out(u) += v; in(v) += u }
    new LocalGraph(labels, out.map(_.toArray.sorted), in.map(_.toArray.sorted), edges.length - dedup.length)
  }
}
