package repro.graph

import scala.collection.mutable
import scala.util.Random

/** DBIS-like heterogeneous bibliographic graph for the node-similarity case
  * study (paper Tables 7 and 8).
  *
  * Schema (directions as in heterogeneous-information-network papers):
  * author --writes--> paper --publishedIn--> venue.
  * Venues are labeled "V", papers "P", authors by their (unique) name — the
  * paper's own labeling of DBIS (§5.4).
  *
  * Ground truth that the real DBIS provides implicitly is made explicit here:
  * every venue has an (area, tier) and the venue "WWW" has three duplicate
  * nodes WWW_1..WWW_3 drawing papers from the same author community — the
  * paper's Table 7 relies on exactly these duplicates existing in DBIS.
  */
object DbisGen {

  final case class Venue(id: Int, name: String, area: String, tier: Int, dupOf: Option[String])

  final case class Dbis(
      graph: LocalGraph,
      venues: Seq[Venue],
      venueNode: Map[String, Int], // venue name -> node id
      paperRange: Range,
      authorRange: Range
  )

  /** Venue universe: ~44 venues over 6 areas, tier 1/2, from the CORE-style
    * world the paper scored relevance against. WWW duplicates included.
    */
  val venueDefs: Seq[(String, String, Int)] = Seq(
    // database
    ("SIGMOD", "DB", 1), ("VLDB", "DB", 1), ("ICDE", "DB", 1), ("PODS", "DB", 1),
    ("EDBT", "DB", 2), ("DASFAA", "DB", 2), ("SSDBM", "DB", 2),
    // web / information retrieval
    ("WWW", "WEB", 1), ("SIGIR", "WEB", 1), ("CIKM", "WEB", 1), ("WSDM", "WEB", 1),
    ("WISE", "WEB", 2), ("Hypertext", "WEB", 2), ("ECIR", "WEB", 2),
    // data mining
    ("SIGKDD", "DM", 1), ("ICDM", "DM", 1), ("SDM", "DM", 2), ("PAKDD", "DM", 2),
    ("PKDD", "DM", 2),
    // artificial intelligence
    ("AAAI", "AI", 1), ("IJCAI", "AI", 1), ("ICML", "AI", 1), ("UAI", "AI", 2),
    ("ECAI", "AI", 2),
    // software engineering
    ("ICSE", "SE", 1), ("FSE", "SE", 1), ("ASE", "SE", 2), ("ISSTA", "SE", 2),
    // networks / systems
    ("SIGCOMM", "NET", 1), ("INFOCOM", "NET", 1), ("NSDI", "NET", 1), ("ICNP", "NET", 2),
    ("IMC", "NET", 2),
    // second-string general venues to pad the ranking space
    ("BigData", "DM", 2), ("DEXA", "DB", 2), ("ADC", "DB", 2), ("APWeb", "WEB", 2),
    ("WebDB", "WEB", 2), ("KAIS", "DM", 2), ("TKDE", "DB", 1), ("TOIS", "WEB", 1)
  )

  /** The 15 subject venues used for the Table-8 nDCG evaluation (top-tier
    * venues spanning the areas, as in PathSim/nSimGram's protocol).
    */
  val subjectVenues: Seq[String] = Seq(
    "SIGMOD", "VLDB", "ICDE", "WWW", "SIGIR", "CIKM", "WSDM",
    "SIGKDD", "ICDM", "AAAI", "IJCAI", "ICSE", "SIGCOMM", "INFOCOM", "ICML")

  /** Generate the graph.
    *
    * @param authorsPerArea  authors in each area community
    * @param papersPerVenue  average papers per venue (tier-1 venues get 1.5x)
    */
  def generate(authorsPerArea: Int, papersPerVenue: Int, seed: Long = 11L): Dbis = {
    val rnd = new Random(seed)
    val dupNames = Seq("WWW_1", "WWW_2", "WWW_3")
    val allVenues: Seq[(String, String, Int, Option[String])] =
      venueDefs.map { case (n, a, t) => (n, a, t, None) } ++
        dupNames.map(d => (d, "WEB", 1, Some("WWW")))

    val areas = venueDefs.map(_._2).distinct
    val nVenues = allVenues.size

    // node layout: [venues][papers][authors]
    val venues = allVenues.zipWithIndex.map { case ((n, a, t, d), i) => Venue(i, n, a, t, d) }
    val venueNode = venues.map(v => v.name -> v.id).toMap

    // author communities per area; ~12% of authors also publish in a second area
    val authorArea = mutable.ArrayBuffer[(Int, Seq[String])]() // (authorIdx, areas)
    var aIdx = 0
    for (area <- areas; _ <- 0 until authorsPerArea) {
      val secondary =
        if (rnd.nextDouble() < 0.12) Seq(area, areas(rnd.nextInt(areas.length))) else Seq(area)
      authorArea += ((aIdx, secondary.distinct)); aIdx += 1
    }
    val nAuthors = aIdx
    val authorsOfArea: Map[String, IndexedSeq[Int]] =
      areas.map(a => a -> authorArea.collect { case (i, as) if as.contains(a) => i }.toIndexedSeq).toMap

    // WWW community: the real DBIS WWW-duplicate nodes are the *same venue*,
    // so WWW and WWW_1..3 draw from one exclusive core community; other WEB
    // venues draw from the whole area (which includes the core, diluted).
    val webAuthors = authorsOfArea("WEB")
    val wwwCore = rnd.shuffle(webAuthors).take(math.max(8, webAuthors.size / 3))

    val edges = mutable.ArrayBuffer[(Int, Int)]()

    final case class PaperSpec(venue: Int, authors: Seq[Int])
    val paperSpecs = mutable.ArrayBuffer[PaperSpec]()

    for (v <- venues) {
      val isWww = v.name == "WWW" || v.dupOf.contains("WWW")
      val count =
        if (isWww) (papersPerVenue * 1.5).toInt // duplicates mirror WWW's size
        else if (v.tier == 1) (papersPerVenue * 1.5).toInt
        else papersPerVenue
      val pool: IndexedSeq[Int] =
        if (isWww) wwwCore.toIndexedSeq else authorsOfArea(v.area)
      for (_ <- 0 until count) {
        val k = 1 + rnd.nextInt(3)
        val as = Seq.fill(k)(pool(rnd.nextInt(pool.size))).distinct
        paperSpecs += PaperSpec(v.id, as)
      }
    }

    val nPapers = paperSpecs.size
    val paperBase = nVenues
    val authorBase = nVenues + nPapers
    val labels = new Array[String](nVenues + nPapers + nAuthors)
    for (v <- venues) labels(v.id) = "V"
    for (i <- 0 until nPapers) labels(paperBase + i) = "P"
    for (i <- 0 until nAuthors) labels(authorBase + i) = f"author_$i%04d"

    // HIN relations (writes, published-in) are semantically undirected;
    // FSimχ consumes directed graphs, so encode them bidirected — otherwise
    // venues become pure sinks and the empty-out-neighborhood convention
    // assigns a vacuous constant to every venue pair, washing out the signal.
    for ((spec, i) <- paperSpecs.zipWithIndex) {
      val p = paperBase + i
      edges += ((p, spec.venue)); edges += ((spec.venue, p))
      for (a <- spec.authors) {
        edges += ((authorBase + a, p)); edges += ((p, authorBase + a))
      }
    }

    Dbis(
      LocalGraph.fromEdges(labels, edges.toSeq),
      venues,
      venueNode,
      paperBase until (paperBase + nPapers),
      authorBase until (authorBase + nAuthors)
    )
  }

  /** Relevance of candidate venue `c` to subject venue `s`, mirroring the
    * paper's 0/1/2 labeling "considering both the research area and venue
    * ranking": 2 = same area & tier 1 (or a duplicate node of the subject),
    * 1 = same area tier 2, 0 = different area.
    */
  def relevance(subject: Venue, candidate: Venue): Int = {
    val effArea = candidate.area
    if (candidate.dupOf.contains(subject.name) || candidate.name == subject.name) 2
    else if (effArea == subject.area && candidate.tier == 1) 2
    else if (effArea == subject.area) 1
    else 0
  }
}
