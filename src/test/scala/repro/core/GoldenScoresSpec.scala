package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.exp.Table6
import repro.graph.{DbisGen, GraphGen}
import scala.io.Source
import scala.util.Random

/** Full score vectors recorded with the earlier Mχ kernel (HashMap/HashSet
  * bookkeeping over boxed candidates), before the neighbour-pair plan was
  * compiled into primitive arrays. dp, bj, SimRank and RoleSim must match bit
  * for bit. s and b sum the per-row (and per-column) maxima; the old kernel
  * summed them in HashMap iteration order, which is not ascending once node
  * ids reach 16, while the compiled kernel sums in ascending order. So those
  * two are compared per score within 1e-12 against the stored vectors, and
  * pinned bit for bit at θ = 0 by checksums recorded with the compiled kernel.
  */
class GoldenScoresSpec extends AnyFunSuite {

  private lazy val dbis = DbisGen.generate(6, 3, 11L).graph
  private lazy val dbisDense = DbisGen.generate(8, 5, 11L).graph
  private lazy val gen = GraphGen.generate(GraphGen.Config("golden", 60, 240, 3, skew = 0.5), 5L)

  private def cfg(v: Variant) = FSimConfig(v, wPlus = 0.4, wMinus = 0.4, theta = 1.0)

  /** A fold of doubleToLongBits over the scores, in key order. */
  private def checksum(scores: Iterator[Double]): Long =
    scores.foldLeft(17L)((h, s) => 31 * h + java.lang.Double.doubleToLongBits(s))

  private def assertBits(res: FSimResult, pairs: Int, iters: Int, sum: Long): Unit = {
    assert((res.numPairs, res.iterations) === ((pairs, iters)))
    assert(checksum(res.pairs.map(_._3)) === sum)
  }

  test("golden: bj at θ=1 on a small DBIS-like graph, bitwise") {
    assertBits(FSimLocal.compute(dbis, dbis, cfg(Variant.BJ)), 25997, 9, -2216873781587518485L)
  }

  test("golden: bj at θ=1 on a DBIS-like graph whose greedy blocks take the row merge, bitwise") {
    // its paper-by-paper blocks are dense enough that Matching merges sorted rows
    // instead of sorting the whole block; the graph above sends none that way
    assertBits(FSimLocal.compute(dbisDense, dbisDense, cfg(Variant.BJ)), 72740, 8, 4717568423125480803L)
  }

  test("golden: dp at θ=1 on a GraphGen graph, bitwise") {
    assertBits(FSimLocal.compute(gen, gen, cfg(Variant.DP)), 1466, 9, -8814405909380852615L)
  }

  test("golden: bj with UbConfig(0.2, 0.5) on a GraphGen graph, bitwise") {
    // α > 0, so pruned neighbours contribute α·UB to their neighbours' mappings
    val c = cfg(Variant.BJ).copy(ub = Some(UbConfig(alpha = 0.2, beta = 0.5)))
    assertBits(FSimLocal.compute(gen, gen, c), 1110, 6, -4316966030929080731L)
  }

  test("golden: SimRank configuration on a GraphGen graph, bitwise") {
    assertBits(FSimLocal.compute(gen, gen, SimRankRoleSim.simRankConfig()), 3600, 10,
      2019653601916528858L)
  }

  test("golden: RoleSim configuration and direct RoleSim on a GraphGen graph, bitwise") {
    val und = SimRankRoleSim.undirectedView(gen)
    assertBits(FSimLocal.compute(und, und, SimRankRoleSim.roleSimConfig()), 3600, 10,
      7639806408609673845L)
    assert(checksum(DirectSimRankRoleSim.roleSim(gen).iterator.flatMap(_.iterator)) ===
      2717045900963416097L)
  }

  test("golden: SimRank and RoleSim configurations with UbConfig(0.2, 0.5), bitwise") {
    // only maintained diagonal pairs are pinned to 1; a pruned diagonal pair
    // keeps α·UB, and that is what its neighbours read
    val g = TestGraphs.uniform(12, 20, 1, 5)
    val ub = Some(UbConfig(alpha = 0.2, beta = 0.5))
    val simRank = FSimLocal.compute(g, g, SimRankRoleSim.simRankConfig().copy(ub = ub))
    assertBits(simRank, 81, 10, -8247039769067825322L)
    assert(simRank.pairs.map(_._3).sum === 12.005872234864299)
    val und = SimRankRoleSim.undirectedView(g)
    assertBits(FSimLocal.compute(und, und, SimRankRoleSim.roleSimConfig().copy(ub = ub)), 112, 10,
      2322622809790165517L)
  }

  test("golden: s at θ=0 on a Table-6 query against an Amazon-like graph, bitwise") {
    // FSimMatcher's shape: a noised 12-node query G1 ≠ G2 against the data graph, every pair eligible
    val data = GraphGen.amazonLike(1500, seed = 3L)
    val (query, _) = Table6.makeQuery(data, "Combined", new Random(11))
    assertBits(FSimLocal.compute(query, data, cfg(Variant.S).copy(theta = 0.0)), 18000, 10, -4682728294457391252L)
  }

  test("golden: b at θ=0 on a GraphGen graph, bitwise") {
    assertBits(FSimLocal.compute(gen, gen, cfg(Variant.B).copy(theta = 0.0)), 3600, 8, 6988537777997544213L)
  }

  for (variant <- Seq(Variant.S, Variant.B)) {
    test(s"golden: ${variant.name} at θ=1 on a GraphGen graph, within 1e-12 per score") {
      val src = Source.fromResource(s"golden/gen-${variant.name}.txt")
      val expected =
        try src.getLines().map(h => java.lang.Double.longBitsToDouble(java.lang.Long.parseUnsignedLong(h, 16))).toArray
        finally src.close()
      val res = FSimLocal.compute(gen, gen, cfg(variant))
      assert(res.iterations === 7)
      val got = res.pairs.map(_._3).toArray
      assert(got.length === expected.length)
      for (i <- got.indices)
        assert(math.abs(got(i) - expected(i)) <= 1e-12, s"pair $i: ${got(i)} vs ${expected(i)}")
    }
  }
}
