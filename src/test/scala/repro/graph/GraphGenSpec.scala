package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class GraphGenSpec extends AnyFunSuite {

  for (cfg <- GraphGen.datasets) {
    test(s"datasetLike(${cfg.name}): node/edge/label counts near configured shape") {
      val g = GraphGen.generate(cfg, 42L)
      assert(g.n === cfg.nodes)
      assert(g.m >= cfg.edges * 0.9, s"edges ${g.m} vs ${cfg.edges}")
      assert(g.m <= cfg.edges)
      assert(g.sigma.length <= cfg.numLabels)
      assert(g.sigma.length >= math.min(cfg.numLabels, 8) / 2)
    }
    test(s"datasetLike(${cfg.name}): deterministic in seed") {
      val a = GraphGen.generate(cfg, 42L); val b = GraphGen.generate(cfg, 42L)
      assert(a.labels.toSeq === b.labels.toSeq)
      assert(a.edges.toSeq === b.edges.toSeq)
    }
  }

  test("skewed generation yields heavy-tailed degrees (JDK-like)") {
    val g = GraphGen.generate(GraphGen.datasets.find(_.name == "JDK").get, 42L)
    val (maxIn, avg) = ((0 until g.n).map(g.inDeg).max, g.m.toDouble / g.n)
    assert(maxIn > 8 * avg, s"maxIn=$maxIn avg=$avg")
  }

  test("amazonLike: out-degree capped at 5, 82 labels, avg degree ~3") {
    val g = GraphGen.amazonLike(4000)
    assert((0 until g.n).map(g.outDeg).max <= 5)
    assert(g.sigma.length === 82)
    assert(g.m.toDouble / g.n > 1.5 && g.m.toDouble / g.n < 4.0)
  }

  test("hierarchical labels have shared prefixes (edit-distance signal)") {
    val sigma = GraphGen.hierarchicalAlphabet(60, new scala.util.Random(1))
    assert(sigma.distinct.size === 60)
    val cat0 = sigma.filter(_.startsWith("cat00"))
    assert(cat0.size > 1)
  }

  test("dbis: papers link exactly one venue; relations are bidirected") {
    val d = DbisGen.generate(authorsPerArea = 20, papersPerVenue = 5)
    val g = d.graph
    val nVenues = d.venues.size
    for (p <- d.paperRange) {
      assert(g.outAdj(p).count(_ < nVenues) === 1, s"paper $p venues")
      // every edge has its reverse (undirected HIN encoding)
      for (x <- g.outAdj(p)) assert(g.hasEdge(x, p))
      assert(g.inAdj(p).toSeq === g.outAdj(p).toSeq)
    }
    for (a <- d.authorRange) assert(g.outAdj(a).forall(d.paperRange.contains))
  }

  test("dbis: labels are V/P/author names") {
    val d = DbisGen.generate(authorsPerArea = 20, papersPerVenue = 5)
    val g = d.graph
    for (v <- d.venues) assert(g.labels(v.id) === "V")
    for (p <- d.paperRange) assert(g.labels(p) === "P")
    for (a <- d.authorRange) assert(g.labels(a).startsWith("author_"))
  }

  test("dbis: WWW duplicates share the WWW author community") {
    val d = DbisGen.generate(authorsPerArea = 40, papersPerVenue = 12)
    val g = d.graph
    def authorsOfVenue(v: Int): Set[Int] =
      g.inAdj(v).filter(d.paperRange.contains)
        .flatMap(p => g.inAdj(p).filter(d.authorRange.contains)).toSet
    val www = authorsOfVenue(d.venueNode("WWW"))
    for (dup <- Seq("WWW_1", "WWW_2", "WWW_3")) {
      val da = authorsOfVenue(d.venueNode(dup))
      val overlap = da.intersect(www).size.toDouble / da.size
      assert(overlap > 0.5, s"$dup overlap=$overlap")
    }
    // a different-area venue shares no authors with WWW
    val icse = authorsOfVenue(d.venueNode("ICSE"))
    assert(icse.intersect(www).isEmpty)
  }

  test("dbis relevance ground truth") {
    val d = DbisGen.generate(authorsPerArea = 10, papersPerVenue = 3)
    val www = d.venues.find(_.name == "WWW").get
    val sigir = d.venues.find(_.name == "SIGIR").get
    val wise = d.venues.find(_.name == "WISE").get
    val icse = d.venues.find(_.name == "ICSE").get
    val dup = d.venues.find(_.name == "WWW_1").get
    assert(DbisGen.relevance(www, sigir) === 2)
    assert(DbisGen.relevance(www, wise) === 1)
    assert(DbisGen.relevance(www, icse) === 0)
    assert(DbisGen.relevance(www, dup) === 2)
  }

  test("rdf versions: sizes follow the paper's ratios and ids are stable") {
    val vs = RdfVersions.generate(n3 = 600)
    assert(vs.g3.n === 600)
    assert(vs.g2.n === (600 * 138651.0 / 144879.0).toInt)
    assert(vs.g1.n === (600 * 133195.0 / 144879.0).toInt)
    // creation-ordered: labels of shared ids agree across versions
    for (u <- 0 until vs.g1.n) {
      assert(vs.g1.labels(u) === vs.g3.labels(u))
      assert(vs.g2.labels(u) === vs.g3.labels(u))
    }
    assert(vs.g3.sigma.length === 8)
  }

  test("rdf versions: churn keeps most edges shared") {
    val vs = RdfVersions.generate(n3 = 600)
    val e3 = vs.g3.edges.toSet
    val shared = vs.g2.edges.count(e3.contains)
    assert(shared > 0.9 * vs.g2.m, s"shared=$shared of ${vs.g2.m}")
  }

  test("rdf versions: few structural twins (attribute sets distinguish entities)") {
    val vs = RdfVersions.generate(n3 = 600)
    val g = vs.g3
    val sigs = (0 until g.n).groupBy(u =>
      (g.labels(u), g.outAdj(u).toSeq, g.inAdj(u).toSeq))
    val twins = sigs.values.count(_.size > 1)
    assert(twins < g.n / 10, s"$twins twin groups")
  }
}
