package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{DbisGen, GraphGen, LocalGraph}
import scala.util.Random

/** The compiled plan itself: its arrays pinned by checksum, its cells and
  * slots against a brute-force enumeration of Remark 2's label-constrained
  * mapping, and the result's lookups through the same slots. The arrays are
  * private, so a test-side helper reads them by reflection; the pair keys
  * and the per-slot label terms are rebuilt through the plan's [[PairIndex]].
  */
class FSimPlanSpec extends AnyFunSuite {

  /** The private field `name` of a plan (scalac may prefix it). */
  private def field[T](plan: FSimPlan, name: String): T = {
    val f = classOf[FSimPlan].getDeclaredFields
      .find(f => f.getName == name || f.getName.endsWith("$$" + name))
      .getOrElse(fail(s"FSimPlan has no field $name"))
    f.setAccessible(true)
    f.get(plan).asInstanceOf[T]
  }

  private def ints(plan: FSimPlan, name: String): Array[Int] = field[Array[Int]](plan, name)

  /** Key u * n2 + v of each slot's pair, read through the plan's index: the
    * sorted keys the plan once stored, so the pinned checksums still hold.
    */
  private def keysOf(plan: FSimPlan): Array[Long] = Array.tabulate(plan.size) { p =>
    val u = plan.index.rowOf(p)
    u.toLong * plan.index.n2 + plan.index.col(u, p)
  }

  /** Each slot's label term, read from the plan's per-label-pair matrix
    * through the index: the per-slot array the plan once stored, so the
    * pinned checksums still hold.
    */
  private def labelsOf(plan: FSimPlan): Array[Double] = {
    val (term, l2) = (field[Array[Array[Double]]](plan, "term"), ints(plan, "l2"))
    Array.tabulate(plan.size) { p =>
      val u = plan.index.rowOf(p)
      term(plan.index.l1(u))(l2(plan.index.col(u, p)))
    }
  }

  /** One fold per plan array, in the order keys, off, cellA, cellB, src,
    * label, fixed (doubles by their bits; a null `fixed` folds to 0).
    */
  private def checksums(plan: FSimPlan): Seq[Long] = {
    def fold(xs: Iterator[Long]): Long = xs.foldLeft(17L)((h, x) => 31 * h + x)
    def doubles(xs: Array[Double]): Long =
      Option(xs).fold(0L)(a => fold(a.iterator.map(java.lang.Double.doubleToLongBits)))
    Seq(fold(keysOf(plan).iterator)) ++
      Seq("off", "cellA", "cellB", "src").map(n => fold(ints(plan, n).iterator.map(_.toLong))) ++
      Seq(doubles(labelsOf(plan)), doubles(field[Array[Double]](plan, "fixed")))
  }

  /** Whether the plan of (g1, g2, c) is a half plan: G1 = G2 (the same object) and b, bj or RoleSim. */
  private def halfPlan(g1: LocalGraph, g2: LocalGraph, c: FSimConfig): Boolean =
    (g1 eq g2) && Seq(Variant.B, Variant.BJ, Variant.RoleSimCfg).contains(c.variant)

  private def cfg(v: Variant, theta: Double) = FSimConfig(v, wPlus = 0.4, wMinus = 0.4, theta = theta)

  /** Category:stem labels. At θ = 0.5, L_E and L_J let cat:ab pair with
    * cat:ba and dog:ab, and dog:xy with dog:ab, so eligible lists overlap
    * without being equal.
    */
  private val Hierarchical = IndexedSeq("cat:ab", "cat:ba", "dog:ab", "dog:xy")

  /** Per label of G1, the G2 nodes it may pair with (L ≥ θ). */
  private def eligible(g1: LocalGraph, g2: LocalGraph, c: FSimConfig): Map[String, Set[Int]] =
    g1.labels.distinct.map(a => a -> (0 until g2.n).filter(y => c.labelSim(a, g2.labels(y)) >= c.theta).toSet).toMap

  private def overlapping(lists: Map[String, Set[Int]]): Boolean =
    lists.values.toSeq.combinations(2).exists { case Seq(e, f) => e != f && (e & f).nonEmpty }

  private lazy val dbis = DbisGen.generate(6, 3, 11L).graph
  private lazy val gen = GraphGen.generate(GraphGen.Config("golden", 60, 240, 3, skew = 0.5), 5L)

  // Recorded from the plan that located slots by binary search and mirrored
  // a half plan's result with per-row cursors. The off, cellA, cellB and src
  // sums (entries 1–4) of the DBIS-like, L_J and SimRank plans, whose graphs
  // have nodes with N⁺ = N⁻, were recorded again when those pairs' in sides
  // became empty.
  private val pinned: Seq[(String, () => FSimPlan, Int, Seq[Long])] = Seq(
    ("bj, θ = 1, self-similarity (half plan)",
      () => new FSimPlan(dbis, dbis, cfg(Variant.BJ, 1.0)), 13116,
      Seq(-8342997061322645301L, -6507868161691794129L, -8687496595196332766L, 2188115514201714229L,
        4336254422673252439L, -1986928962656450415L, 0L)),
    ("bj, θ = 1, self-similarity, UbConfig(0.2, 0.5)",
      () => new FSimPlan(dbis, dbis, cfg(Variant.BJ, 1.0).copy(ub = Some(UbConfig(0.2, 0.5)))), 13116,
      Seq(-8342997061322645301L, -6507868161691794129L, -8687496595196332766L, 2188115514201714229L,
        4336254422673252439L, -1986928962656450415L, -6701329453231084762L)),
    ("s, θ = 0, Amazon-like query against an Amazon-like graph", { () =>
      val data = GraphGen.amazonLike(600, 7L)
      new FSimPlan(data.sampleConnectedSubgraph(8, new Random(99L))._1, data, cfg(Variant.S, 0.0))
    }, 4800,
      Seq(5502998200240304497L, -119242496875912919L, 5430069060367969573L, -7021394045644400051L,
        -3076436558955416447L, -5976783772541343727L, 0L)),
    ("dp, θ = 1, two GraphGen graphs", { () =>
      val other = GraphGen.generate(GraphGen.Config("other", 50, 200, 3, skew = 0.5), 6L)
      new FSimPlan(gen, other, cfg(Variant.DP, 1.0))
    }, 1185,
      Seq(1208126889347068563L, 1809387604605618493L, 2095372324072828707L, -6062305849947787104L,
        -5834213478194361280L, -1064348351301118449L, 0L)),
    ("bj, θ = 0.5, L_J on hierarchical labels (overlapping eligible lists)", { () =>
      val h = LocalGraph.fromEdges(Array.tabulate(gen.n)(u => Hierarchical(u % Hierarchical.length)), gen.edges.toSeq)
      val c = cfg(Variant.BJ, 0.5).copy(labelSim = LabelSim.JaroWinkler)
      assert(overlapping(eligible(h, h, c)))
      new FSimPlan(h, h, c)
    }, 1380,
      Seq(3559653011568414622L, 222435918885502455L, -5692794347233295497L, 7910608530104534565L,
        -6157186815064102555L, -1192994000646887303L, 0L)),
    // Recorded from the plan whose count and fill rank-tested every neighbour pair.
    ("bj, θ = 1, self-similarity, UbConfig(0, 0.5), JDK-shaped GraphGen graph (skew 0.9, 41 labels)", { () =>
      val jdk = GraphGen.generate(GraphGen.Config("jdk", 150, 3500, 41, skew = 0.9), 9L)
      new FSimPlan(jdk, jdk, cfg(Variant.BJ, 1.0).copy(ub = Some(UbConfig(0.0, 0.5))))
    }, 1195,
      Seq(-380528171393729301L, 1157555767002827141L, -1903166484147123491L, -8085008815778626632L,
        2075774639436209820L, -8390335166629834929L, -6613665113632174257L)),
    ("SimRank configuration (full plan, pinned diagonal)",
      () => new FSimPlan(gen, gen, SimRankRoleSim.simRankConfig()), 3600,
      Seq(-3336890957056936679L, -5689792142627010546L, -7101469755427745983L, 3945381023579009423L,
        572011770131070916L, 3095153780162690577L, 0L)))

  for ((name, build, size, sums) <- pinned)
    test(s"plan arrays are pinned: $name") {
      val plan = build()
      assert((plan.size, checksums(plan)) === ((size, sums)))
    }

  /** Two labelled digraphs of 1–10 nodes, with self-loops and isolated
    * nodes, over 1–3 flat labels or the hierarchical ones; G2 is G1 (same
    * object) half the time. Every variant, θ ∈ {0, 0.5, 1}, L_I, L_E or
    * L_J, with and without UbConfig(0.2, 0.5).
    */
  private val planCase: Gen[(LocalGraph, LocalGraph, FSimConfig)] = {
    def graph(sigma: Seq[String]) = for {
      n <- Gen.choose(1, 10)
      m <- Gen.choose(0, 3 * n)
      edges <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
      labels <- Gen.listOfN(n, Gen.oneOf(sigma))
    } yield LocalGraph.fromEdges(labels.toArray, edges)
    for {
      sigma <- Gen.oneOf(Seq("a"), Seq("a", "b"), Seq("a", "b", "c"), Hierarchical)
      g1 <- graph(sigma)
      g2 <- Gen.oneOf(Gen.const(g1), graph(sigma))
      variant <- Gen.oneOf(Variant.paper ++ Seq(Variant.SimRankCfg, Variant.RoleSimCfg))
      theta <- Gen.oneOf(0.0, 0.5, 1.0)
      labelSim <- Gen.oneOf(LabelSim.Indicator, LabelSim.EditDistance, LabelSim.JaroWinkler)
      ub <- Gen.oneOf(None, Some(UbConfig(alpha = 0.2, beta = 0.5)))
    } yield {
      val base = variant match {
        case Variant.SimRankCfg => SimRankRoleSim.simRankConfig()
        case Variant.RoleSimCfg => SimRankRoleSim.roleSimConfig()
        case _ => cfg(variant, theta)
      }
      (g1, g2, base.copy(theta = theta, labelSim = labelSim, ub = ub))
    }
  }

  /** Pair in sides with cells to enumerate: `both` of a pair whose two nodes have N⁺ = N⁻ (stored
    * empty), `one` of a pair where only one of them does (stored in full).
    */
  private final class MutualSides { var both, one = 0 }

  /** Whether the plan's keys, cells and slots equal a brute-force enumeration of the L ≥ θ pairs of
    * (g1, g2, c), with no in cells where u and v both have N⁺ = N⁻; `side(s1, s2, want)` sees each
    * pair side's neighbours and wanted cells (a, b), and `mutual` counts the in sides drawn.
    */
  private def matchesBruteForce(g1: LocalGraph, g2: LocalGraph, c: FSimConfig, plan: FSimPlan, mutual: MutualSides)
                               (side: (Array[Int], Array[Int], IndexedSeq[(Int, Int)]) => Unit): Boolean = {
    val (off, cellA, cellB, src) = (ints(plan, "off"), ints(plan, "cellA"), ints(plan, "cellB"), ints(plan, "src"))
    val n2 = g2.n
    val half = halfPlan(g1, g2, c)
    def eligibleNodes(x: Int, y: Int) = c.labelSim(g1.labels(x), g2.labels(y)) >= c.theta
    def key(x: Int, y: Int) = if (half && y < x) y.toLong * n2 + x else x.toLong * n2 + y
    def bothWays(g: LocalGraph, x: Int) = (0 until g.n).forall(y => g.hasEdge(x, y) == g.hasEdge(y, x)) // N⁺ = N⁻
    val expected = for (u <- 0 until g1.n; v <- 0 until n2 if eligibleNodes(u, v) && (!half || u <= v))
      yield u.toLong * n2 + v
    val keys = keysOf(plan)
    keys.toSeq == expected && keys.indices.forall { p =>
      val (u, v) = ((keys(p) / n2).toInt, (keys(p) % n2).toInt) // rowOf(p) and col(u, p)
      plan.index.slot(u, v) == p &&
      Seq((g1.outAdj(u), g2.outAdj(v)), (g1.inAdj(u), g2.inAdj(v))).zipWithIndex.forall { case ((s1, s2), s) =>
        val cells = off(2 * p + s) until off(2 * p + s + 1)
        val all = for (a <- s1.indices; b <- s2.indices if eligibleNodes(s1(a), s2(b))) yield (a, b)
        val shared = s == 1 && bothWays(g1, u) && bothWays(g2, v)
        if (s == 1 && all.nonEmpty)
          if (shared) mutual.both += 1 else if (bothWays(g1, u) || bothWays(g2, v)) mutual.one += 1
        val want = if (shared) IndexedSeq.empty else all
        side(s1, s2, want)
        cells.map(k => (cellA(k), cellB(k))) == want &&
          cells.forall(k => keys(src(k)) == key(s1(cellA(k)), s2(cellB(k))))
      }
    }
  }

  /** Whether a neighbour row without cells lies between two rows with cells. */
  private def gap(s1: Array[Int], want: IndexedSeq[(Int, Int)]): Boolean = {
    val rowCells = s1.indices.map(a => want.count(_._1 == a))
    rowCells.indices.exists(a => rowCells(a) == 0 && rowCells.take(a).exists(_ > 0) && rowCells.drop(a + 1).exists(_ > 0))
  }

  /** Whether x's class is partial (its row is not all of V2), so that the fill writes x's cells from its class runs. */
  private def partialClass(plan: FSimPlan, x: Int): Boolean = plan.index.row(x).length < plan.index.n2

  /** How many wanted cells (a, b) of a half plan mirror a pair (y < x) and come from a class run. */
  private def mirroredFromRuns(plan: FSimPlan, s1: Array[Int], s2: Array[Int], want: IndexedSeq[(Int, Int)]): Int =
    if (!plan.index.half) 0 else want.count { case (a, b) => s2(b) < s1(a) && partialClass(plan, s1(a)) }

  test("compiled keys, cells and slots equal a brute-force enumeration of the L ≥ θ pairs") {
    var halves, overlaps, empties = 0
    var fullAndPartial, shared = 0 // plans with a full row (all of V2) and a partial one; with a shared row
    var gaps, twoClasses = 0 // plans with a cell-less neighbour row between rows with cells; with a Σ2 label
                             // eligible with two rows that are not all of V2
    var mixed, mirrored = 0 // pair sides with cells of a full-class and of a partial-class neighbour; half-plan
                            // cells (y < x) of a partial-class neighbour, written from its class run
    val mutual = new MutualSides
    val prop = Prop.forAll(planCase) { case (g1, g2, c) =>
      val plan = new FSimPlan(g1, g2, c)
      val n2 = g2.n
      val lists = eligible(g1, g2, c)
      if (halfPlan(g1, g2, c)) halves += 1
      if (overlapping(lists)) overlaps += 1
      if (lists.values.exists(_.isEmpty)) empties += 1
      val rows = (0 until g1.n).map(plan.index.row)
      if (rows.exists(_.length == n2) && rows.exists(r => r.nonEmpty && r.length < n2)) fullAndPartial += 1
      if ((0 until g1.n).combinations(2).exists { case Seq(u, w) =>
        g1.labels(u) != g1.labels(w) && (rows(u) eq rows(w)) }) shared += 1
      val partial = lists.values.toSet.filter(_.size < n2)
      if (g2.labels.distinct.exists(l => partial.count(_.exists(g2.labels(_) == l)) >= 2)) twoClasses += 1
      var gapped = false
      matchesBruteForce(g1, g2, c, plan, mutual) { (s1, s2, want) =>
        gapped ||= gap(s1, want)
        if (want.exists(w => partialClass(plan, s1(w._1))) && want.exists(w => !partialClass(plan, s1(w._1)))) mixed += 1
        mirrored += mirroredFromRuns(plan, s1, s2, want)
      } && { if (gapped) gaps += 1; true }
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withWorkers(1)
      .withInitialSeed(Seed(20210419L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
    assert(halves > 0 && overlaps > 0 && empties > 0,
      s"half plans: $halves, overlapping eligible lists: $overlaps, empty eligible lists: $empties")
    assert(fullAndPartial > 0 && shared > 0,
      s"plans with full and partial rows: $fullAndPartial, with two labels sharing a row: $shared")
    assert(gaps > 0 && twoClasses > 0,
      s"plans with a cell-less row between rows with cells: $gaps, with a Σ2 label in two partial rows: $twoClasses")
    assert(mixed > 0 && mirrored > 0,
      s"pair sides with full- and partial-class cells: $mixed, mirrored cells from class runs: $mirrored")
    assert(mutual.both > 0 && mutual.one > 0,
      s"in sides with cells of pairs mutual on both nodes: ${mutual.both}, on one node: ${mutual.one}")
  }

  test("class lists: per G2 node and partial row, the positions of its neighbours that the row holds") {
    var multi, twoClasses = 0 // nodes that list two classes; Σ2 labels eligible with two classes
    val prop = Prop.forAll(planCase) { case (g1, g2, c) =>
      val index = new FSimPlan(g1, g2, c).index
      val classRows = index.classes()._2
      val lists = new ClassLists(index, g2)
      val range = lists.scratch.get()
      if (g2.labels.distinct.exists(l => classRows.count(_.exists(g2.labels(_) == l)) >= 2)) twoClasses += 1
      (0 until g1.n).forall(x => lists.classOf(x) == classRows.indexWhere(_ eq index.row(x))) &&
      Seq((g2.outAdj, lists.out), (g2.inAdj, lists.in)).forall { case (adj, side) =>
        classRows.isEmpty && side == null || (0 until g2.n).forall { v =>
          side.scatter(v, range, on = true)
          val listed = classRows.indices.map(k => (range(2 * k) until range(2 * k + 1)).map(side.position))
          side.scatter(v, range, on = false)
          if (listed.count(_.nonEmpty) >= 2) multi += 1
          side.count(v, Array.fill(classRows.length)(1)) == listed.map(_.length).sum && range.forall(_ == 0) &&
            listed == classRows.toSeq.map(row => adj(v).indices.filter(b => row.contains(adj(v)(b))))
        }
      }
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withWorkers(1)
      .withInitialSeed(Seed(20210419L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
    assert(multi > 0 && twoClasses > 0, s"nodes listing two classes: $multi, Σ2 labels in two partial rows: $twoClasses")
  }

  /** Denser graphs of 24–40 nodes over 12 flat labels at θ = 1, G2 = G1 half the time, every paper
    * variant, with and without UbConfig(0, 0.5): neighbourhoods large and selective enough that
    * the class runs the fill reads skip most of N(v).
    */
  private val listCase: Gen[(LocalGraph, LocalGraph, FSimConfig)] = {
    val graph = for {
      n <- Gen.choose(24, 40)
      m <- Gen.choose(8 * n, 14 * n)
      edges <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
      labels <- Gen.listOfN(n, Gen.choose(0, 11).map(l => s"l$l"))
    } yield LocalGraph.fromEdges(labels.toArray, edges)
    for {
      g1 <- graph
      g2 <- Gen.oneOf(Gen.const(g1), graph)
      variant <- Gen.oneOf(Variant.paper)
      ub <- Gen.oneOf(None, Some(UbConfig(alpha = 0.0, beta = 0.5)))
    } yield (g1, g2, cfg(variant, 1.0).copy(ub = ub))
  }

  test("cells read from the class lists equal a brute-force enumeration on denser graphs") {
    // a neighbour of a partial class (a row that is not all of V2) is filled from its class run
    var listed, listedGaps, mirrored = 0
    val prop = Prop.forAll(listCase) { case (g1, g2, c) =>
      val plan = new FSimPlan(g1, g2, c)
      matchesBruteForce(g1, g2, c, plan, new MutualSides) { (s1, s2, want) =>
        if (s1.exists(partialClass(plan, _))) {
          listed += 1
          if (gap(s1, want)) listedGaps += 1
        }
        mirrored += mirroredFromRuns(plan, s1, s2, want)
      }
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(100).withWorkers(1)
      .withInitialSeed(Seed(20210419L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
    assert(listed > 0 && listedGaps > 0 && mirrored > 0,
      s"pair sides filled from lists: $listed, with a cell-less row: $listedGaps, mirrored cells from runs: $mirrored")
  }

  test("FSim⁰: zero iterations give L(u, v), RoleSim's degree ratio or SimRank's identity per maintained pair") {
    var halves, fulls, bounded = 0
    val variants = scala.collection.mutable.Set.empty[Variant]
    val prop = Prop.forAll(planCase) { case (g1, g2, c) =>
      val res = FSimLocal.compute(g1, g2, c.copy(exactIters = Some(0)))
      if (halfPlan(g1, g2, c)) halves += 1 else fulls += 1
      if (c.ub.isDefined && res.numPairs > 0) bounded += 1
      variants += c.variant
      res.iterations == 0 && res.pairs.forall { case (u, v, s) =>
        val want = c.variant match {
          case Variant.SimRankCfg => if (u == v) 1.0 else 0.0
          case Variant.RoleSimCfg =>
            val (du, dv) = (g1.outAdj(u).length, g2.outAdj(v).length)
            if (du == 0 && dv == 0) 1.0 else math.min(du, dv).toDouble / math.max(du, dv)
          case _ => c.labelSim(g1.labels(u), g2.labels(v))
        }
        s == want
      }
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withWorkers(1)
      .withInitialSeed(Seed(20210419L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
    assert(halves > 0 && fulls > 0 && bounded > 0 && variants.size == 6,
      s"half plans: $halves, full plans: $fulls, bounded: $bounded, variants: $variants")
  }

  test("result lookup: score(u, v) reads what pairs gives, pairs walk the L ≥ θ pairs in (u, v) order") {
    var halves, fulls, bounded, unbounded, pruned = 0
    val thetas = scala.collection.mutable.Set.empty[Double]
    val prop = Prop.forAll(planCase) { case (g1, g2, c) =>
      val res = FSimLocal.compute(g1, g2, c)
      if (halfPlan(g1, g2, c)) halves += 1 else fulls += 1
      if (c.ub.isDefined) bounded += 1 else unbounded += 1
      thetas += c.theta
      val lists = eligible(g1, g2, c)
      val pairs = res.pairs.toSeq
      if (pairs.size < g1.labels.map(lists(_).size).sum) pruned += 1
      val byPair = pairs.map { case (u, v, s) => (u, v) -> s }.toMap
      val keys = pairs.map(p => (p._1, p._2))
      keys == keys.distinct.sorted && res.numPairs == pairs.size &&
        keys.forall { case (u, v) => lists(g1.labels(u)).contains(v) } &&
        (0 until g1.n).forall(u => (0 until g2.n).forall { v =>
          java.lang.Double.doubleToLongBits(res.score(u, v)) ==
            java.lang.Double.doubleToLongBits(byPair.getOrElse((u, v), 0.0))
        })
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withWorkers(1)
      .withInitialSeed(Seed(20210419L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
    assert(halves > 0 && fulls > 0 && bounded > 0 && unbounded > 0 && pruned > 0 && thetas == Set(0.0, 0.5, 1.0),
      s"half plans: $halves, full plans: $fulls, with bounds: $bounded, without: $unbounded, " +
        s"with pruned pairs: $pruned, θ: $thetas")
  }
}
