package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.DbisGen
import repro.sim._
import repro.util.Stats

/** Tables 7 and 8: node-similarity case study on the DBIS-like graph.
  * Table 7 ranks the top-5 venues most similar to WWW per measure; Table 8
  * evaluates nDCG@15 of each measure's rankings over 15 subject venues
  * against the generator's (area, tier) ground truth.
  *
  * FSim_bj runs on the Spark engine (the largest FSimχ computation in the
  * suite — all same-label pairs of the bibliographic graph); FSim_b runs on
  * the validated local engine. θ=1 with indicator labels, as in the paper's
  * case studies. PCRW, PathSim, JoinSim and nSimGram are local folds over
  * the same graph, so FSim_bj is the only Spark computation.
  */
object Table78 {

  val measureNames: Seq[String] = Seq("PCRW", "PathSim", "JoinSim", "nSimGram", "FSim_b", "FSim_bj")

  /** Paper's Table 7 (top-5 similar venues to WWW). */
  val paperTable7: Map[String, Seq[String]] = Map(
    "PCRW" -> Seq("WWW", "SIGIR", "ICDE", "VLDB", "Hypertext"),
    "PathSim" -> Seq("WWW", "CIKM", "SIGKDD", "WISE", "ICDM"),
    "JoinSim" -> Seq("WWW", "WWW_1", "CIKM", "WSDM", "WWW_2"),
    "nSimGram" -> Seq("WWW", "CIKM", "SIGIR", "WWW_1", "SIGKDD"),
    "FSim_b" -> Seq("WWW", "CIKM", "ICDE", "VLDB", "SIGIR"),
    "FSim_bj" -> Seq("WWW", "WWW_1", "CIKM", "WWW_2", "WWW_3"))

  /** Paper's Table 8 (nDCG). */
  val paperTable8: Map[String, Double] = Map(
    "PCRW" -> 0.684, "PathSim" -> 0.684, "JoinSim" -> 0.689,
    "nSimGram" -> 0.700, "FSim_b" -> 0.699, "FSim_bj" -> 0.733)

  final case class Computed(data: DbisGen.Dbis, scores: Map[String, (Int, Int) => Double])

  def compute(spark: SparkSession): Computed = {
    val data = DbisGen.generate(authorsPerArea = 50, papersPerVenue = 14)
    val g = data.graph

    val m = MetaPath.commutingMatrix(data)
    val pcrw = Pcrw.venueScores(data)
    val prof = NSimGram.venueProfiles(data)

    val cfg = FSimConfig(Variant.B, wPlus = 0.4, wMinus = 0.4, theta = 1.0)
    val fsimB = FSimLocal.compute(g, g, cfg)
    val fsimBj = FSimSpark.compute(spark, g, g, cfg.copy(variant = Variant.BJ))

    Computed(data, Map(
      "PCRW" -> ((a: Int, b: Int) => pcrw(a).getOrElse(b, 0.0)),
      "PathSim" -> ((a: Int, b: Int) => MetaPath.pathSim(m)(a, b)),
      "JoinSim" -> ((a: Int, b: Int) => MetaPath.joinSim(m)(a, b)),
      "nSimGram" -> ((a: Int, b: Int) => NSimGram.cosine(prof(a), prof(b))),
      "FSim_b" -> ((a: Int, b: Int) => fsimB.score(a, b)),
      "FSim_bj" -> ((a: Int, b: Int) => fsimBj.score(a, b))))
  }

  /** Rank all venues by similarity to `subject` (self included, ties by name
    * for determinism).
    */
  def ranking(c: Computed, subject: DbisGen.Venue, score: (Int, Int) => Double): Seq[DbisGen.Venue] =
    c.data.venues.sortBy(v => (-score(subject.id, v.id), v.name))

  // ---- Table 7 ----

  final case class Top5(measure: String, venues: Seq[String])

  def table7(c: Computed): Seq[Top5] = {
    val www = c.data.venues.find(_.name == "WWW").get
    measureNames.map { mn =>
      Top5(mn, ranking(c, www, c.scores(mn)).take(5).map(_.name))
    }
  }

  def renderTable7(tops: Seq[Top5]): String = {
    val sb = new StringBuilder
    sb.append("Table 7 — top-5 venues similar to WWW (paper | measured)\n")
    for (t <- tops) {
      sb.append(f"${t.measure}%-10s paper:    ${paperTable7(t.measure).mkString(", ")}\n")
      sb.append(f"${""}%-10s measured: ${t.venues.mkString(", ")}\n")
    }
    sb.toString
  }

  // ---- Table 8 ----

  final case class Ndcg(measure: String, ndcg: Double)

  def table8(c: Computed): Seq[Ndcg] = {
    val subjects = DbisGen.subjectVenues.map(n => c.data.venues.find(_.name == n).get)
    measureNames.map { mn =>
      val score = c.scores(mn)
      val vals = subjects.map { s =>
        val candidates = ranking(c, s, score).filterNot(_.id == s.id)
        val ranked = candidates.map(v => DbisGen.relevance(s, v))
        Stats.ndcgAt(15, ranked.take(15), ranked)
      }
      Ndcg(mn, vals.sum / vals.size)
    }
  }

  def renderTable8(rows: Seq[Ndcg]): String = {
    val sb = new StringBuilder
    sb.append("Table 8 — nDCG of node-similarity rankings (paper / measured)\n")
    for (r <- rows)
      sb.append(f"${r.measure}%-10s${paperTable8(r.measure)}%.3f / ${r.ndcg}%.3f\n")
    sb.toString
  }
}
