package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import MatchingOracle.Cand

class MatchingSpec extends AnyFunSuite {

  /** The kernel, [[Matching.mapRaw]], on the cells of `ps`. */
  private def raw(v: Variant, ps: Seq[Cand]): Double = MatchingOracle.kernel(v, ps)

  private def cands(ws: (Int, Int, Double)*): Seq[Cand] =
    ws.map { case (x, y, w) => Cand(x, y, w) }

  private def unit(ps: Seq[Cand]): Seq[Cand] = ps.map(_.copy(w = 1.0))

  test("s: sum of per-row maxima") {
    val ps = cands((0, 0, 0.5), (0, 1, 0.8), (1, 0, 0.3))
    assert(raw(Variant.S, ps) === 0.8 + 0.3)
  }

  test("b: row maxima plus column maxima") {
    val ps = cands((0, 0, 0.5), (0, 1, 0.8), (1, 0, 0.3))
    // rows: max(0.5,0.8)+0.3 = 1.1 ; cols: max(0.5,0.3)+0.8 = 1.3
    assert(math.abs(raw(Variant.B, ps) - 2.4) < 1e-12)
  }

  test("dp/bj greedy matching takes heaviest non-conflicting pairs") {
    val ps = cands((0, 0, 0.9), (0, 1, 0.8), (1, 0, 0.7), (1, 1, 0.1))
    // greedy: (0,0)=0.9 then (1,1)=0.1 -> 1.0 (true max is 0.8+0.7=1.5; heuristic)
    assert(math.abs(raw(Variant.DP, ps) - 1.0) < 1e-12)
    assert(math.abs(raw(Variant.BJ, ps) - 1.0) < 1e-12)
  }

  test("weight-1 pairs are matched exactly, not greedily (P2 refinement)") {
    // plain greedy would pick (0,0) then strand node 1 at weight 0
    val ps = cands((0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0))
    assert(raw(Variant.DP, ps) === 2.0)
    assert(raw(Variant.DP, unit(ps)) === 2.0)
  }

  test("simrank config sums everything") {
    val ps = cands((0, 0, 0.5), (0, 1, 0.25), (1, 1, 0.25))
    assert(raw(Variant.SimRankCfg, ps) === 1.0)
  }

  test("mapSize per variant") {
    // the map size |Mχ| (the Eq.-6 numerator) is mapRaw at unit weights
    val ps = unit(cands((0, 0, 0.5), (0, 1, 0.8), (1, 0, 0.3)))
    assert(raw(Variant.S, ps) === 2.0)  // rows 0 and 1
    assert(raw(Variant.B, ps) === 4.0)  // rows 2 + cols 2
    assert(raw(Variant.DP, ps) === 2.0) // matching (0,1),(1,0)
    assert(raw(Variant.SimRankCfg, ps) === 3.0)
  }

  test("term: empty-neighborhood conventions (DESIGN.md §5)") {
    assert(Matching.term(Variant.S, 0.0, 0, 5) === 1.0)
    assert(Matching.term(Variant.DP, 0.0, 0, 0) === 1.0)
    assert(Matching.term(Variant.B, 0.0, 0, 0) === 1.0)
    assert(Matching.term(Variant.B, 0.0, 0, 3) === 0.0)
    assert(Matching.term(Variant.BJ, 0.0, 0, 0) === 1.0)
    assert(Matching.term(Variant.BJ, 0.0, 2, 0) === 0.0)
    assert(Matching.term(Variant.BJ, 0.0, 0, 2) === 0.0)
    assert(Matching.term(Variant.SimRankCfg, 0.0, 0, 2) === 0.0)
    assert(Matching.term(Variant.RoleSimCfg, 0.0, 0, 0) === 1.0)
  }

  test("term: normalization denominators match Table 3") {
    assert(Matching.term(Variant.S, 2.0, 4, 9) === 0.5)
    assert(Matching.term(Variant.DP, 2.0, 4, 9) === 0.5)
    assert(Matching.term(Variant.B, 6.5, 4, 9) === 0.5)
    assert(Matching.term(Variant.BJ, 3.0, 4, 9) === 0.5)
    assert(Matching.term(Variant.SimRankCfg, 18.0, 4, 9) === 0.5)
    assert(Matching.term(Variant.RoleSimCfg, 4.5, 4, 9) === 0.5)
  }

  for (seed <- 1 to 20) {
    test(s"randomized properties, seed $seed") {
      val rnd = new Random(seed)
      val n1 = 1 + rnd.nextInt(6); val n2 = 1 + rnd.nextInt(6)
      val ps = for (x <- 0 until n1; y <- 0 until n2; if rnd.nextDouble() < 0.7)
        yield Cand(x, y, rnd.nextInt(11) / 10.0)
      for (v <- Variant.paper) {
        val r = raw(v, ps)
        val size = raw(v, unit(ps))
        assert(r >= 0.0)
        assert(r <= size + 1e-9, s"$v raw=$r size=$size") // each score <= 1
        // raw/omega is a valid fraction given |M| <= omega (condition C2)
        assert(Matching.term(v, r, n1, n2) <= 1.0 + 1e-9, s"$v")
        // the reference kernel, fed the cells in any order, agrees
        assert(math.abs(MatchingOracle.mapRaw(v, rnd.shuffle(ps)) - r) <= 1e-12)
      }
      // dp matching sum is at least the single best pair
      if (ps.nonEmpty) {
        assert(raw(Variant.DP, ps) >= ps.map(_.w).max - 1e-12)
        // and at most the s relaxation
        assert(raw(Variant.DP, ps) <= raw(Variant.S, ps) + 1e-12)
      }
    }
  }

  // ---- the primitive kernel against the reference kernel ----

  private val weightGen: Gen[Double] = Gen.frequency(
    1 -> Gen.const(1.0),
    1 -> Gen.const(1.0 - 1e-10), // counts as weight 1 in the exact pass
    1 -> Gen.const(0.0),
    6 -> Gen.choose(1, 4).map(_ / 5.0), // repeated weights, so ties happen
    1 -> Gen.choose(0.0, 1.0))

  /** Block sides of 0–40, mostly small, so that dense short blocks (where
    * greedy tie-breaks change the sum) and long blocks both occur.
    */
  private val sideGen: Gen[Int] = Gen.frequency(3 -> Gen.choose(0, 5), 1 -> Gen.choose(0, 40))

  /** An n1 × n2 block of cells at one of several densities, so empty rows,
    * empty columns and empty blocks all occur. One block in ten has unit
    * weights, as the Eq.-6 bound pass sees it at θ = 1.
    */
  private val blockGen: Gen[(Int, Int, Seq[Cand])] = for {
    n1 <- sideGen
    n2 <- sideGen
    density <- Gen.oneOf(0.05, 0.3, 0.7, 1.0)
    cells <- Gen.listOfN(n1 * n2, Gen.zip(Gen.prob(density), weightGen))
    units <- Gen.prob(0.1)
    ps = for (((keep, w), i) <- cells.zipWithIndex if keep) yield Cand(i / n2, i % n2, w)
  } yield (n1, n2, if (units) unit(ps) else ps)

  /** Dense blocks with 12–40 cells to a row or a column, whose cells mostly
    * stay free after the exact pass: wide blocks with a few weight-1 cells,
    * whose greedy pass merges sorted rows, and tall ones of at most 3
    * columns with none (they would take every column), whose greedy pass
    * sorts all their free cells at once.
    */
  private val longBlockGen: Gen[(Int, Int, Seq[Cand])] = for {
    short <- Gen.choose(1, 10)
    long <- Gen.choose(12, 40)
    wide <- Gen.prob(0.5)
    n1 = if (wide) short else long
    n2 = if (wide) long else math.min(short, 3)
    density <- Gen.oneOf(0.7, 1.0)
    below1 = Gen.frequency(1 -> Gen.const(0.0), 6 -> Gen.choose(1, 4).map(_ / 5.0), 2 -> Gen.choose(0.0, 0.99))
    weight = if (wide) Gen.frequency(1 -> Gen.const(1.0), 29 -> below1) else below1
    cells <- Gen.listOfN(n1 * n2, Gen.zip(Gen.prob(density), weight))
  } yield (n1, n2, for (((keep, w), i) <- cells.zipWithIndex if keep) yield Cand(i / n2, i % n2, w))

  /** Dense blocks of 6–10 rows and 6–10 columns without weight-1 cells, so
    * that the greedy pass merges sorted rows. Most weights are one of two
    * values, so row heads tie across rows on one column, and the others are
    * continuous, so the row that loses such a tie goes on to a different
    * weight and the sum depends on which row wins.
    */
  private val tieBlockGen: Gen[(Int, Int, Seq[Cand])] = for {
    n1 <- Gen.choose(6, 10)
    n2 <- Gen.choose(6, 10)
    ws <- Gen.listOfN(n1 * n2, Gen.frequency(2 -> Gen.const(0.6), 1 -> Gen.const(0.4), 2 -> Gen.choose(0.01, 0.99)))
  } yield (n1, n2, for ((w, i) <- ws.zipWithIndex) yield Cand(i / n2, i % n2, w))

  private val variants = Variant.paper ++ Seq(Variant.SimRankCfg, Variant.RoleSimCfg)

  /** Counts the blocks of more than 32 free cells (weight > 0, row and
    * column left free by the weight-1 pass) by the path the greedy pass
    * takes: the row merge, at 4 or more per row that has one, or the
    * single sort below that; and the row-merge blocks whose greedy sum
    * changes if ties between rows go to the higher row.
    */
  private final class GreedyPaths {
    var rowMerge, singleSort, rowMergeTies = 0
    def add(ps: Seq[Cand]): Unit = {
      val free = MatchingOracle.freeAfterOnes(ps).filter(_.w > 0)
      if (free.size > 32) {
        if (free.size >= 4 * free.map(_.x).distinct.size) {
          rowMerge += 1
          if (bits(MatchingOracle.greedyRowsSwapped(ps)) != bits(MatchingOracle.mapRaw(Variant.DP, ps))) rowMergeTies += 1
        } else singleSort += 1
      }
    }
    def check(): Unit = {
      assert(rowMerge > 0, "no block whose greedy pass merges sorted rows")
      assert(singleSort > 0, "no block of more than 32 free cells whose greedy pass sorts them at once")
    }
    override def toString =
      s"row merge: $rowMerge, whose sum hangs on the row tie order: $rowMergeTies; single sort of > 32 cells: $singleSort"
  }

  private def bits(x: Double): Long = java.lang.Double.doubleToLongBits(x)

  /** Σ over the keys of `ps` of their largest weight, in ascending key order: the order in which
    * the kernel adds s's row maxima and b's row, then column, maxima.
    */
  private def ascendingMax(ps: Seq[Cand], key: Cand => Int): Double =
    ps.groupBy(key).toSeq.sortBy(_._1).foldLeft(0.0)((sum, g) => sum + g._2.map(_.w).max)

  test("blocks of 0 and 1 cells equal the reference kernel bit for bit, all six variants") {
    val scratch = new Matching.Scratch
    for (v <- variants) {
      for ((n1, n2) <- Seq((0, 0), (0, 3), (2, 0), (3, 4)))
        assert(bits(MatchingOracle.kernel(v, Nil, n1, n2, scratch)) === bits(MatchingOracle.mapRaw(v, Nil)))
      for (w <- Seq(0.0, 0.5, 1.0 - 2e-9, 1.0 - 1e-9, 1.0); (x, y, n1, n2) <- Seq((0, 0, 1, 1), (2, 1, 3, 4))) {
        val ps = Seq(Cand(x, y, w))
        assert(bits(MatchingOracle.kernel(v, ps, n1, n2, scratch)) === bits(MatchingOracle.mapRaw(v, ps)),
          s"${v.name}, w=$w")
      }
    }
  }

  test("kernel equals the reference kernel on random blocks, all six variants") {
    // one scratch for every block, run back to back, so stale state would show
    val scratch = new Matching.Scratch
    val cellCounts = scala.collection.mutable.Set[Int]()
    var allOnes, partlyFree, zeroFree = 0
    // s and b sum a maximum per run of equal row: runs of several cells, runs with
    // empty rows between them, and the 1-cell shortcut
    var longRun, rowGap, oneCell = 0
    val paths = new GreedyPaths
    def prop(gen: Gen[(Int, Int, Seq[Cand])]) = Prop.forAll(gen) { case (n1, n2, ps) =>
      cellCounts += ps.size
      val rows = ps.map(_.x).distinct.sorted
      if (rows.size < ps.size) longRun += 1
      if (rows.zip(rows.drop(1)).exists { case (x, y) => y > x + 1 }) rowGap += 1
      if (ps.size == 1) oneCell += 1
      paths.add(ps)
      if (ps.size >= 2 && ps.forall(_.w >= 1.0 - 1e-9)) allOnes += 1
      val free = MatchingOracle.freeAfterOnes(ps)
      if (free.nonEmpty && free.size < ps.size) partlyFree += 1
      if (free.exists(_.w == 0.0)) zeroFree += 1
      variants.forall { v =>
        val got = MatchingOracle.kernel(v, ps, n1, n2, scratch)
        val want = MatchingOracle.mapRaw(v, ps)
        if (v == Variant.S) bits(got) == bits(ascendingMax(ps, _.x)) && math.abs(got - want) <= 1e-12
        else if (v == Variant.B)
          bits(got) == bits(ascendingMax(ps, _.x) + ascendingMax(ps, _.y)) && math.abs(got - want) <= 1e-12
        else bits(got) == bits(want)
      }
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withWorkers(1)
      .withInitialSeed(Seed(20210419L))
    val result = Test.check(params, prop(blockGen))
    assert(result.passed, Pretty.pretty(result))
    // blockGen's large blocks are mostly left with few free cells by the weight-1 pass
    val long = Test.check(params.withMinSuccessfulTests(100), prop(longBlockGen))
    assert(long.passed, Pretty.pretty(long))
    val ties = Test.check(params.withMinSuccessfulTests(100), prop(tieBlockGen))
    assert(ties.passed, Pretty.pretty(ties))
    // the kernel returns early for these, so the generator must draw them
    assert(cellCounts(0) && oneCell > 0, "no block of 0 or 1 cells drawn")
    assert(longRun > 0, "no block with several cells in one row")
    assert(rowGap > 0, "no block with an empty row between rows that have cells")
    // the greedy kernel returns the Kuhn count when no cell is left free,
    // and sorts a strict subset of the cells when some are
    assert(allOnes > 0, "no block of two or more weight-1 cells drawn")
    assert(partlyFree > 0, "no block the weight-1 pass leaves partly free")
    // the greedy sweep drops free cells of weight 0
    assert(zeroFree > 0, "no block the weight-1 pass leaves a weight-0 cell free")
    // and sorts long blocks one of two ways
    paths.check()
    // and the row merge's tie order between rows changes the sum of some
    assert(paths.rowMergeTies > 0, "no row-merge block whose greedy sum changes if the higher row wins a tie")
    info(s"blocks with several cells in a row: $longRun; with an empty row between rows: $rowGap; " +
      s"of one cell: $oneCell; of >= 2 weight-1 cells: $allOnes; left partly free: $partlyFree; " +
      s"with a free weight-0 cell: $zeroFree; $paths")
  }

  // ---- transposition: what the half plan of a self-similarity run needs ----

  private def transpose(ps: Seq[Cand]): Seq[Cand] = ps.map(c => Cand(c.y, c.x, c.w))

  test("the greedy kernel is not transposition-invariant on every block") {
    // Kuhn matches (1, 2) and (2, 0) here, which frees row 0 and column 1,
    // and (0, 1) and (1, 2) in the transpose, which frees row 2 and column
    // 0 for the 0.5 cell. The half plan of FSimPlan does not rely on the
    // kernel alone: in a self-similarity run the weight-1 cells of a block
    // are the score-1 pairs, an equivalence relation, so they form whole
    // class blocks, the case the property below covers.
    val ps = cands((0, 2, 0.5), (1, 0, 1.0), (1, 2, 1.0), (2, 0, 1.0), (2, 1, 1.0))
    for (v <- Seq(Variant.DP, Variant.BJ, Variant.RoleSimCfg)) {
      assert(raw(v, ps) === 2.0, v.name)
      assert(raw(v, transpose(ps)) === 2.5, v.name)
    }
  }

  /** An n1 × n2 block whose weight-1 cells are complete bipartite blocks
    * R_c × C_c of disjoint row and column classes c, the shape score-1
    * neighbour pairs take on G1 = G2, plus other cells of weight below 1.
    */
  private val classBlockGen: Gen[(Int, Int, Seq[Cand])] = for {
    n1 <- sideGen
    n2 <- sideGen
    k <- Gen.choose(1, 4)
    rowClass <- Gen.listOfN(n1, Gen.choose(-1, k - 1)) // -1: in no class
    colClass <- Gen.listOfN(n2, Gen.choose(-1, k - 1))
    density <- Gen.oneOf(0.3, 0.7, 1.0)
    cells <- Gen.listOfN(n1 * n2, Gen.zip(Gen.prob(density), weightGen.map(w => if (w >= 1.0 - 1e-9) 0.6 else w)))
  } yield (n1, n2, for {
    ((keep, w), i) <- cells.zipWithIndex
    (x, y) = (i / n2, i % n2)
    same = rowClass(x) >= 0 && rowClass(x) == colClass(y)
    if same || keep
  } yield Cand(x, y, if (same) 1.0 else w))

  test("blocks whose weight-1 cells are class blocks give the same mapRaw and term transposed, bit for bit") {
    val scratch = new Matching.Scratch
    var severalOnesInARow = 0
    val paths = new GreedyPaths
    val prop = Prop.forAll(classBlockGen) { case (n1, n2, ps) =>
      if (ps.filter(_.w == 1.0).groupBy(_.x).exists(_._2.size >= 2)) severalOnesInARow += 1
      paths.add(ps)
      Seq(Variant.DP, Variant.BJ, Variant.RoleSimCfg).forall { v =>
        val r = MatchingOracle.kernel(v, ps, n1, n2, scratch)
        val t = MatchingOracle.kernel(v, transpose(ps), n2, n1, scratch)
        // dp's Ω = |S1| is one-sided, so only its raw sum is compared
        bits(r) == bits(t) &&
          (v == Variant.DP || bits(Matching.term(v, r, n1, n2)) == bits(Matching.term(v, t, n2, n1)))
      }
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withWorkers(1)
      .withInitialSeed(Seed(20210419L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
    assert(severalOnesInARow > 0, "no block with two weight-1 cells in one row")
    paths.check()
    info(paths.toString)
  }
}
