package repro.sim

import repro.graph.DbisGen

/** Meta-path machinery over the DBIS-like bibliographic graph (author →
  * paper → venue): the venue-author incidence counts and the V-P-A-P-V
  * commuting matrix that PathSim and JoinSim are defined on. Both are folds
  * over the local graph (oracle-checked against DuckDB SQL in tests).
  */
object MetaPath {

  /** (venue, author) -> papers of `venue` written by `author`: for each
    * paper p, each venue among p's out-neighbours and each author among its
    * in-neighbours.
    */
  def venueAuthorCounts(d: DbisGen.Dbis): Map[(Int, Int), Long] = {
    val g = d.graph
    (for (p <- d.paperRange; v <- g.outAdj(p).iterator if v < d.venues.size;
          a <- g.inAdj(p).iterator if d.authorRange.contains(a)) yield (v, a))
      .groupMapReduce(identity)(_ => 1L)(_ + _)
  }

  /** Nonzero entries of the commuting matrix M of the meta-path V-P-A-P-V:
    * M(v1,v2) = Σ_a cnt(v1,a)·cnt(v2,a).
    */
  def commutingMatrix(d: DbisGen.Dbis): Map[(Int, Int), Double] = {
    val byAuthor = venueAuthorCounts(d).toSeq.groupMap(_._1._2) { case ((v, _), c) => (v, c) }
    byAuthor.values.toSeq
      .flatMap(vcs => for ((v1, c1) <- vcs; (v2, c2) <- vcs) yield ((v1, v2), c1 * c2))
      .groupMapReduce(_._1)(_._2)(_ + _).map { case (k, m) => k -> m.toDouble }
  }

  /** PathSim (Sun et al., VLDB'11): s(a,b) = 2·M(a,b)/(M(a,a)+M(b,b)). */
  def pathSim(m: Map[(Int, Int), Double])(a: Int, b: Int): Double = {
    val mab = m.getOrElse((a, b), 0.0)
    val maa = m.getOrElse((a, a), 0.0); val mbb = m.getOrElse((b, b), 0.0)
    if (maa + mbb == 0.0) 0.0 else 2 * mab / (maa + mbb)
  }

  /** JoinSim (Xiong et al., TKDE'15): s(a,b) = M(a,b)/sqrt(M(a,a)·M(b,b)). */
  def joinSim(m: Map[(Int, Int), Double])(a: Int, b: Int): Double = {
    val mab = m.getOrElse((a, b), 0.0)
    val maa = m.getOrElse((a, a), 0.0); val mbb = m.getOrElse((b, b), 0.0)
    if (maa == 0.0 || mbb == 0.0) 0.0 else mab / math.sqrt(maa * mbb)
  }
}

/** PCRW (Lao & Cohen, 2010): path-constrained random-walk probability along
  * V-P-A-P-V with uniform transitions — computed locally (the venue set is
  * small; the walk distributions are per-source).
  */
object Pcrw {

  /** score(v1)(v2) = probability of reaching venue v2 from venue v1. */
  def venueScores(d: DbisGen.Dbis): Map[Int, Map[Int, Double]] = {
    val g = d.graph
    // venue -> its papers (in-neighbors that are papers)
    def papersOf(v: Int) = g.inAdj(v).filter(d.paperRange.contains)
    def authorsOf(p: Int) = g.inAdj(p).filter(d.authorRange.contains)
    def papersBy(a: Int) = g.outAdj(a).filter(d.paperRange.contains)
    def venueOf(p: Int) = g.outAdj(p).find(_ < d.venues.size)

    d.venues.map { vd =>
      val v1 = vd.id
      val dist = collection.mutable.HashMap[Int, Double]().withDefaultValue(0.0)
      val ps = papersOf(v1)
      if (ps.nonEmpty) {
        val pP = 1.0 / ps.length
        for (p <- ps) {
          val as = authorsOf(p)
          if (as.nonEmpty) {
            val pA = pP / as.length
            for (a <- as) {
              val ps2 = papersBy(a)
              if (ps2.nonEmpty) {
                val pP2 = pA / ps2.length
                for (p2 <- ps2; v2 <- venueOf(p2)) dist(v2) += pP2
              }
            }
          }
        }
      }
      v1 -> dist.toMap
    }.toMap
  }
}

/** nSimGram-like q-gram similarity (Conte et al., KDD'18): each venue gets a
  * profile of label q-grams collected from length-2 paths through its papers
  * (author names are the discriminative labels); similarity is profile
  * cosine. Simplified reimplementation of the unavailable original.
  */
object NSimGram {

  def venueProfiles(d: DbisGen.Dbis): Map[Int, Map[String, Double]] = {
    val g = d.graph
    d.venues.map { vd =>
      val v = vd.id
      val prof = collection.mutable.HashMap[String, Double]().withDefaultValue(0.0)
      for (p <- g.inAdj(v) if d.paperRange.contains(p)) {
        prof("V|P") += 1.0 // 1-gram: publication volume
        for (a <- g.inAdj(p) if d.authorRange.contains(a)) {
          prof(s"V|P|${g.labels(a)}") += 1.0 // 2-gram through the author label
        }
      }
      v -> prof.toMap
    }.toMap
  }

  def cosine(a: Map[String, Double], b: Map[String, Double]): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    val dot = a.iterator.map { case (k, x) => x * b.getOrElse(k, 0.0) }.sum
    val na = math.sqrt(a.valuesIterator.map(x => x * x).sum)
    val nb = math.sqrt(b.valuesIterator.map(x => x * x).sum)
    if (na == 0 || nb == 0) 0.0 else dot / (na * nb)
  }
}
