package repro.graph

import scala.collection.mutable
import scala.util.Random

/** Synthetic labeled-digraph generators standing in for the paper's public
  * datasets (Table 4). The container is offline, so every dataset is
  * generated deterministically in (config, seed); see DESIGN.md §3 for why
  * each substitution preserves the behaviour the experiments exercise.
  */
object GraphGen {

  /** Shape of a dataset: node count, edge count, label-alphabet size, and a
    * preferential-attachment strength that controls degree skew (0 = uniform,
    * 1 = strongly skewed, matching hub-heavy graphs like JDK/ACMCit).
    */
  final case class Config(
      name: String,
      nodes: Int,
      edges: Int,
      numLabels: Int,
      skew: Double,
      hierarchicalLabels: Boolean = false
  )

  /** The paper's Table 4 datasets scaled down ~50x (~500x for ACMCit) so the
    * whole suite runs on one machine. |Σ| is kept at the original value when
    * it is small, and scaled when it was huge (ACMCit's 72K labels).
    */
  val datasets: Seq[Config] = Seq(
    Config("Yeast",  2361 / 4,     7182 / 4,     13,  0.4),
    Config("Cora",   23166 / 50,   91500 / 50,   70,  0.5),
    Config("Wiki",   4592 / 4,     119882 / 4,   120, 0.6),
    Config("JDK",    6434 / 4,     150985 / 4,   41,  0.9),
    Config("NELL",   75492 / 100,  154213 / 100, 100, 0.6, hierarchicalLabels = true),
    Config("GP",     144879 / 100, 298564 / 100, 8,   0.8),
    Config("Amazon", 554790 / 50,  1788725 / 50, 82,  0.1),
    Config("ACMCit", 1462947 / 500, 9671895 / 500, 144, 0.9)
  )

  /** Hierarchical string labels, NELL-style ("cat03:wordstem"), so that
    * edit-distance and Jaro-Winkler label similarity have real signal
    * (needed by the Table-5 sensitivity study). Stems are random words of
    * varied length, so labels within a category share a short prefix but are
    * otherwise distinctive — like real NELL concept labels, where the
    * average inter-label string similarity is moderate, not near 1.
    */
  def hierarchicalAlphabet(k: Int, rnd: Random): IndexedSeq[String] = {
    val cats = math.max(1, k / 12)
    def word(): String = {
      val len = 4 + rnd.nextInt(8)
      (0 until len).map(_ => ('a' + rnd.nextInt(26)).toChar).mkString
    }
    val seen = collection.mutable.HashSet[String]()
    (0 until k).map { i =>
      val c = i % cats
      var lbl = f"cat$c%02d:${word()}"
      while (seen.contains(lbl)) lbl = f"cat$c%02d:${word()}"
      seen += lbl
      lbl
    }
  }

  /** Flat label alphabet L000..L(k-1). */
  def flatAlphabet(k: Int): IndexedSeq[String] = (0 until k).map(i => f"L$i%03d")

  /** Generate a random simple digraph with `cfg.edges` edges. Endpoints are
    * drawn with preferential attachment of strength `skew` (a Chung-Lu-like
    * scheme over zipf-ish node weights) which yields heavy-tailed in/out
    * degrees like the real graphs. Labels are assigned zipf-ish too, so some
    * labels are frequent (high candidate-pair counts) and some rare.
    */
  def generate(cfg: Config, seed: Long): LocalGraph = {
    val rnd = new Random(seed)
    val n = cfg.nodes
    val sigma =
      if (cfg.hierarchicalLabels) hierarchicalAlphabet(cfg.numLabels, rnd)
      else flatAlphabet(cfg.numLabels)
    // zipf label assignment: label rank r has weight 1/(r+1)^0.8
    val labelRank = zipf(cfg.numLabels, 0.8, rnd)
    val labels = Array.fill(n)(sigma(labelRank()))

    // node weights for endpoint draws: w(u) = 1/(rank+1)^skew
    val nodeRank = zipf(n, cfg.skew, rnd)
    val perm = rnd.shuffle((0 until n).toVector).toArray // decouple id from rank
    def drawNode(): Int = perm(nodeRank())

    val seen = mutable.HashSet[Long]()
    val edges = mutable.ArrayBuffer[(Int, Int)]()
    var guard = 0
    val maxTries = cfg.edges.toLong * 30
    while (edges.size < cfg.edges && guard < maxTries) {
      val u = drawNode(); val v = drawNode()
      val key = (u.toLong << 32) | v.toLong
      if (u != v && !seen.contains(key)) { seen += key; edges += ((u, v)) }
      guard += 1
    }
    LocalGraph.fromEdges(labels, edges.toSeq)
  }

  /** Draws a rank r in 0 until k with probability ∝ 1/(r+1)^s: one nextDouble of `rnd`,
    * scaled by the total weight and binary-searched in the running sums (summed in rank order).
    */
  private def zipf(k: Int, s: Double, rnd: Random): () => Int = {
    val cum = Array.tabulate(k)(r => 1.0 / math.pow(r + 1, s)).scanLeft(0.0)(_ + _) // cum(r + 1): ranks 0..r
    () => {
      val x = rnd.nextDouble() * cum(k)
      var lo = 0; var hi = k - 1
      while (lo < hi) { val mid = (lo + hi) / 2; if (cum(mid + 1) < x) lo = mid + 1 else hi = mid }
      lo
    }
  }

  /** Amazon-like co-purchase graph for the Table-6 pattern-matching study:
    * low, capped out-degree (paper: D⁺=5), moderate in-degree skew, 82 labels.
    */
  def amazonLike(nodes: Int, seed: Long = 7L): LocalGraph = {
    val rnd = new Random(seed)
    val sigma = flatAlphabet(82)
    val labels = Array.fill(nodes)(sigma(rnd.nextInt(sigma.length)))
    val edges = mutable.ArrayBuffer[(Int, Int)]()
    val seen = mutable.HashSet[Long]()
    for (u <- 0 until nodes) {
      val d = 1 + rnd.nextInt(5) // out-degree 1..5, avg 3
      var added = 0; var tries = 0
      while (added < d && tries < 40) {
        // mild locality: co-purchases cluster around nearby ids
        val v = if (rnd.nextDouble() < 0.7)
          math.floorMod(u + rnd.nextInt(200) - 100, nodes)
        else rnd.nextInt(nodes)
        val key = (u.toLong << 32) | v.toLong
        if (v != u && !seen.contains(key)) { seen += key; edges += ((u, v)); added += 1 }
        tries += 1
      }
    }
    LocalGraph.fromEdges(labels, edges.toSeq)
  }
}
