package repro.sim

import repro.{Oracle, SparkSpec}
import repro.graph.DbisGen

class MetaPathSpec extends SparkSpec {

  private lazy val d = DbisGen.generate(authorsPerArea = 20, papersPerVenue = 6)
  private lazy val m = MetaPath.commutingMatrix(d)

  private def vaDF = {
    import spark.implicits._
    MetaPath.venueAuthorCounts(d).toSeq.map { case ((v, a), c) => (v.toLong, a.toLong, c) }
      .toDF("venue", "author", "cnt")
  }

  test("venue-author counts match DuckDB oracle") {
    import spark.implicits._
    val g = d.graph
    val nVenues = d.venues.size
    val pv = g.edges.collect {
      case (p, v) if d.paperRange.contains(p) && v < nVenues => (p.toLong, v.toLong)
    }.toSeq.toDF("paper", "venue")
    val ap = g.edges.collect {
      case (a, p) if d.authorRange.contains(a) && d.paperRange.contains(p) => (a.toLong, p.toLong)
    }.toSeq.toDF("author", "paper")
    Oracle.assertEquivalent(vaDF,
      "SELECT pv.venue AS venue, ap.author AS author, count(*) AS cnt " +
        "FROM pv JOIN ap ON pv.paper = ap.paper GROUP BY pv.venue, ap.author",
      "pv" -> pv, "ap" -> ap)
  }

  test("commuting matrix matches DuckDB oracle") {
    import spark.implicits._
    // the entries are sums of count products, so whole numbers
    assert(m.values.forall(x => x == math.rint(x)))
    val mDF = m.toSeq.map { case ((v1, v2), x) => (v1.toLong, v2.toLong, x.toLong) }.toDF("v1", "v2", "m")
    Oracle.assertEquivalent(mDF,
      "SELECT a.venue AS v1, b.venue AS v2, sum(CAST(a.cnt AS BIGINT) * CAST(b.cnt AS BIGINT)) AS m " +
        "FROM va a JOIN va b ON a.author = b.author GROUP BY a.venue, b.venue",
      "va" -> vaDF)
  }

  test("commuting matrix of the Table 7/8 graph is pinned") {
    val big = DbisGen.generate(authorsPerArea = 50, papersPerVenue = 14)
    val entries = MetaPath.commutingMatrix(big).toSeq.sortBy(_._1)
    assert(entries.forall { case (_, x) => x == math.rint(x) })
    val checksum = entries.foldLeft(0L) { case (h, ((v1, v2), x)) =>
      h * 31 + (v1 * 64L + v2) * 1000003L + x.toLong
    }
    assert((entries.size, checksum) === ((894, -8485321201303959161L)))
  }

  test("PathSim: self-similarity is 1, symmetric, in [0,1]") {
    val ps = MetaPath.pathSim(m) _
    for (v <- d.venues) {
      if (m.contains((v.id, v.id))) assert(ps(v.id, v.id) === 1.0)
      for (w <- d.venues) {
        assert(ps(v.id, w.id) >= 0.0 && ps(v.id, w.id) <= 1.0 + 1e-12)
        assert(math.abs(ps(v.id, w.id) - ps(w.id, v.id)) < 1e-12)
      }
    }
  }

  test("JoinSim: self-similarity 1, symmetric, dominated by 1") {
    val js = MetaPath.joinSim(m) _
    for (v <- d.venues if m.contains((v.id, v.id))) assert(js(v.id, v.id) === 1.0)
    for (v <- d.venues; w <- d.venues) {
      assert(js(v.id, w.id) <= 1.0 + 1e-9) // Cauchy-Schwarz
      assert(math.abs(js(v.id, w.id) - js(w.id, v.id)) < 1e-12)
    }
  }

  test("PCRW: per-source distribution sums to at most 1") {
    val scores = Pcrw.venueScores(d)
    for ((v, dist) <- scores) {
      val total = dist.values.sum
      assert(total <= 1.0 + 1e-9, s"venue $v sums to $total")
      dist.values.foreach(p => assert(p >= 0.0))
    }
  }

  test("PCRW: walks from a venue return to it with positive probability") {
    val scores = Pcrw.venueScores(d)
    val www = d.venueNode("WWW")
    assert(scores(www).getOrElse(www, 0.0) > 0.0)
  }

  test("nSimGram: cosine in [0,1], self-similarity 1") {
    val prof = NSimGram.venueProfiles(d)
    for (v <- d.venues if prof(v.id).nonEmpty) {
      assert(math.abs(NSimGram.cosine(prof(v.id), prof(v.id)) - 1.0) < 1e-9)
      for (w <- d.venues) {
        val c = NSimGram.cosine(prof(v.id), prof(w.id))
        assert(c >= 0.0 && c <= 1.0 + 1e-9)
      }
    }
  }

  test("same-area venues are more PathSim-similar than cross-area (community signal)") {
    val ps = MetaPath.pathSim(m) _
    val www = d.venueNode("WWW"); val sigir = d.venueNode("SIGIR")
    val icse = d.venueNode("ICSE")
    assert(ps(www, sigir) > ps(www, icse))
  }
}
