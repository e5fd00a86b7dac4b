package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import Matching.Cand

class MatchingSpec extends AnyFunSuite {

  private def cands(ws: (Int, Int, Double)*): Seq[Cand] =
    ws.map { case (x, y, w) => Cand(x, y, w) }

  private def unit(ps: Seq[Cand]): Seq[Cand] = ps.map(_.copy(w = 1.0))

  test("s: sum of per-row maxima") {
    val ps = cands((0, 0, 0.5), (0, 1, 0.8), (1, 0, 0.3))
    assert(Matching.mapRaw(Variant.S, ps) === 0.8 + 0.3)
  }

  test("b: row maxima plus column maxima") {
    val ps = cands((0, 0, 0.5), (0, 1, 0.8), (1, 0, 0.3))
    // rows: max(0.5,0.8)+0.3 = 1.1 ; cols: max(0.5,0.3)+0.8 = 1.3
    assert(math.abs(Matching.mapRaw(Variant.B, ps) - 2.4) < 1e-12)
  }

  test("dp/bj greedy matching takes heaviest non-conflicting pairs") {
    val ps = cands((0, 0, 0.9), (0, 1, 0.8), (1, 0, 0.7), (1, 1, 0.1))
    // greedy: (0,0)=0.9 then (1,1)=0.1 -> 1.0 (true max is 0.8+0.7=1.5; heuristic)
    assert(math.abs(Matching.mapRaw(Variant.DP, ps) - 1.0) < 1e-12)
    assert(math.abs(Matching.mapRaw(Variant.BJ, ps) - 1.0) < 1e-12)
  }

  test("weight-1 pairs are matched exactly, not greedily (P2 refinement)") {
    // plain greedy would pick (0,0) then strand node 1 at weight 0
    val ps = cands((0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.0))
    assert(Matching.mapRaw(Variant.DP, ps) === 2.0)
    assert(Matching.mapRaw(Variant.DP, unit(ps)) === 2.0)
  }

  test("simrank config sums everything") {
    val ps = cands((0, 0, 0.5), (0, 1, 0.25), (1, 1, 0.25))
    assert(Matching.mapRaw(Variant.SimRankCfg, ps) === 1.0)
  }

  test("mapSize per variant") {
    // the map size |Mχ| (the Eq.-6 numerator) is mapRaw at unit weights
    val ps = unit(cands((0, 0, 0.5), (0, 1, 0.8), (1, 0, 0.3)))
    assert(Matching.mapRaw(Variant.S, ps) === 2.0)  // rows 0 and 1
    assert(Matching.mapRaw(Variant.B, ps) === 4.0)  // rows 2 + cols 2
    assert(Matching.mapRaw(Variant.DP, ps) === 2.0) // matching (0,1),(1,0)
    assert(Matching.mapRaw(Variant.SimRankCfg, ps) === 3.0)
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
        val raw = Matching.mapRaw(v, ps)
        val size = Matching.mapRaw(v, unit(ps))
        assert(raw >= 0.0)
        assert(raw <= size + 1e-9, s"$v raw=$raw size=$size") // each score <= 1
        // raw/omega is a valid fraction given |M| <= omega (condition C2)
        assert(Matching.term(v, raw, n1, n2) <= 1.0 + 1e-9, s"$v")
        // determinism
        assert(Matching.mapRaw(v, rnd.shuffle(ps)) === raw)
      }
      // dp matching sum is at least the single best pair
      if (ps.nonEmpty) {
        assert(Matching.mapRaw(Variant.DP, ps) >= ps.map(_.w).max - 1e-12)
        // and at most the s relaxation
        assert(Matching.mapRaw(Variant.DP, ps) <= Matching.mapRaw(Variant.S, ps) + 1e-12)
      }
    }
  }
}
