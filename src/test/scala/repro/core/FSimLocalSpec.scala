package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.{DbisGen, LocalGraph}
import scala.util.Random

/** Executable versions of the paper's Definition 4 (P1–P3), Theorem 1 /
  * Corollary 1, and the §3.4 optimizations, on the local reference engine.
  */
class FSimLocalSpec extends AnyFunSuite {

  private val OneTol = 1e-6

  private def cfg(v: Variant) =
    FSimConfig(v, wPlus = 0.4, wMinus = 0.4, theta = 0.0, epsilon = 1e-8)

  for (seed <- 1 to 6; variant <- Variant.paper) {
    test(s"P1 range: all scores within [0,1], χ=${variant.name}, seed $seed") {
      val g1 = TestGraphs.uniform(9, 16, 2, seed)
      val g2 = TestGraphs.uniform(10, 18, 2, seed + 50)
      val res = FSimLocal.compute(g1, g2, cfg(variant))
      res.pairs.foreach { case (u, v, s) =>
        assert(s >= -1e-12 && s <= 1.0 + 1e-9, s"($u,$v)=$s")
      }
    }
  }

  for (seed <- 1 to 6; variant <- Variant.paper) {
    test(s"P2 simulation definiteness: score=1 ⇔ exact χ-simulation, χ=${variant.name}, seed $seed") {
      val g1 = TestGraphs.uniform(8, 14, 2, seed)
      val g2 = TestGraphs.uniform(9, 16, 2, seed + 50)
      val exact = ExactSimulation.relation(g1, g2, variant)
      val res = FSimLocal.compute(g1, g2, cfg(variant))
      for (u <- 0 until g1.n; v <- 0 until g2.n) {
        val isOne = res.score(u, v) >= 1.0 - OneTol
        assert(isOne === exact(u).get(v),
          s"χ=${variant.name} ($u,$v): score=${res.score(u, v)} exact=${exact(u).get(v)}")
      }
    }
  }

  for (seed <- 1 to 6; variant <- Seq(Variant.B, Variant.BJ)) {
    test(s"P3 χ-conditional symmetry, χ=${variant.name}, seed $seed") {
      val g = TestGraphs.uniform(10, 20, 2, seed)
      val res = FSimLocal.compute(g, g, cfg(variant))
      for (u <- 0 until g.n; v <- 0 until g.n)
        assert(math.abs(res.score(u, v) - res.score(v, u)) < 1e-9, s"($u,$v)")
    }
  }

  for (variant <- Variant.paper) {
    test(s"Corollary 1: converges within ⌈log_(w+ + w-) ε⌉ iterations, χ=${variant.name}") {
      val g1 = TestGraphs.uniform(12, 25, 3, 7)
      val g2 = TestGraphs.uniform(12, 25, 3, 8)
      val c = FSimConfig(variant, wPlus = 0.4, wMinus = 0.4, epsilon = 0.01)
      val res = FSimLocal.compute(g1, g2, c)
      assert(res.iterations <= c.iterationBound + 1)
      assert(res.finalDelta < c.epsilon)
    }
  }

  test("iteration bound formula") {
    val c = FSimConfig(Variant.S, wPlus = 0.4, wMinus = 0.4, epsilon = 0.01)
    assert(c.iterationBound === math.ceil(math.log(0.01) / math.log(0.8)).toInt)
  }

  test("ε ≤ 0 and NaN are rejected; a Corollary-1 bound of Int.MaxValue runs 100 iterations") {
    for (eps <- Seq(0.0, -0.01, Double.NaN))
      intercept[IllegalArgumentException](FSimConfig(Variant.S, epsilon = eps))
    val c = FSimConfig(Variant.S, wPlus = 0.5, wMinus = 0.4999999999999999, epsilon = 1e-300)
    assert(c.iterationBound === Int.MaxValue)
    // a 2-cycle a ⇄ b against an a self-loop: the two pairs swap scores each
    // sweep, so max |Δ| stays near 1 and only the cap ends the run
    val g1 = LocalGraph.fromEdges(Array("a", "b"), Seq((0, 1), (1, 0)))
    val g2 = LocalGraph.fromEdges(Array("a"), Seq((0, 0)))
    val res = FSimLocal.compute(g1, g2, c)
    assert((res.iterations, res.finalDelta > 0.5) === ((100, true)))
  }

  test("original Milner semantics: w- = 0 ignores in-neighbors") {
    // u with an extra in-neighbor is still fully simulated when w- = 0
    val g1 = LocalGraph.fromEdges(Array("a", "p"), Seq((1, 0)))
    val g2 = LocalGraph.fromEdges(Array("a", "p"), Seq.empty)
    val res = FSimLocal.compute(g1, g2,
      FSimConfig(Variant.S, wPlus = 0.8, wMinus = 1e-12, epsilon = 1e-8))
    assert(res.score(0, 0) >= 1.0 - 1e-9)
  }

  test("label term dominates when w* is large") {
    val g1 = TestGraphs.uniform(8, 12, 2, 3)
    val g2 = TestGraphs.uniform(8, 12, 2, 4)
    val res = FSimLocal.compute(g1, g2,
      FSimConfig(Variant.S, wPlus = 0.05, wMinus = 0.05, epsilon = 1e-8))
    for ((u, v, s) <- res.pairs) {
      val lbl = if (g1.labels(u) == g2.labels(v)) 1.0 else 0.0
      assert(math.abs(s - lbl) <= 0.1 + 1e-9, s"($u,$v)=$s lbl=$lbl")
    }
  }

  test("θ=1 maintains only same-label pairs (Remark 2 pruning)") {
    val g1 = TestGraphs.uniform(10, 20, 3, 5)
    val g2 = TestGraphs.uniform(10, 20, 3, 6)
    val res = FSimLocal.compute(g1, g2, cfg(Variant.S).copy(theta = 1.0))
    val sameLabel = (for (u <- 0 until g1.n; v <- 0 until g2.n
                          if g1.labels(u) == g2.labels(v)) yield (u, v)).toSet
    assert(res.numPairs === sameLabel.size)
    res.pairs.foreach { case (u, v, _) => assert(sameLabel((u, v))) }
  }

  test("θ=1 scores equal θ=0 scores on same-label-only mappings graph") {
    // single-label graph: θ has no effect
    val g = TestGraphs.uniform(10, 22, 1, 9)
    val r0 = FSimLocal.compute(g, g, cfg(Variant.BJ))
    val r1 = FSimLocal.compute(g, g, cfg(Variant.BJ).copy(theta = 1.0))
    for (u <- 0 until g.n; v <- 0 until g.n)
      assert(math.abs(r0.score(u, v) - r1.score(u, v)) < 1e-12)
  }

  for (variant <- Variant.paper) {
    test(s"P2 on the paper's Figure 1, χ=${variant.name}") {
      import repro.exp.Table2._
      val res = FSimLocal.compute(g1, g2, cfg(variant))
      for ((vName, vId) <- vs) {
        val expected = paper((variant.name, vName))._1
        assert((res.score(u, vId) >= 1.0 - OneTol) === expected, s"(u,$vName)")
      }
    }
  }

  test("Figure 1 fractional ordering: v4 ≥ v3 ≥ ... with v1 strictly worst (bj)") {
    import repro.exp.Table2._
    val res = FSimLocal.compute(g1, g2, cfg(Variant.BJ))
    val scores = vs.map { case (_, vId) => res.score(u, vId) }
    assert(scores(3) === scores.max)
    assert(scores(0) === scores.min)
    assert(scores(0) < 1.0 - OneTol)
  }

  // ---- upper-bound updating (§3.4) ----

  test("ub with β=0 prunes nothing and equals the baseline") {
    val g1 = TestGraphs.uniform(9, 18, 2, 11)
    val g2 = TestGraphs.uniform(9, 18, 2, 12)
    val base = FSimLocal.compute(g1, g2, cfg(Variant.BJ))
    val ub = FSimLocal.compute(g1, g2,
      cfg(Variant.BJ).copy(ub = Some(UbConfig(alpha = 0.2, beta = 0.0))))
    assert(base.numPairs === ub.numPairs)
    for ((u, v, s) <- base.pairs) assert(math.abs(s - ub.score(u, v)) < 1e-12)
  }

  test("ub prunes pairs and keeps survivors' scores close (α=0, β=0.5)") {
    val g1 = TestGraphs.uniform(12, 24, 3, 13)
    val g2 = TestGraphs.uniform(12, 24, 3, 14)
    val base = FSimLocal.compute(g1, g2, cfg(Variant.BJ))
    val ub = FSimLocal.compute(g1, g2,
      cfg(Variant.BJ).copy(ub = Some(UbConfig(alpha = 0.0, beta = 0.5))))
    assert(ub.numPairs < base.numPairs)
    // survivors stay within the pruning-induced error envelope
    var maxErr = 0.0
    for ((u, v, s) <- ub.pairs) maxErr = math.max(maxErr, math.abs(s - base.score(u, v)))
    assert(maxErr < 0.5, s"maxErr=$maxErr")
  }

  /** The Eq.-6 bound of a candidate pair (u, v), read from one bound pass
    * over the whole plan, the pass that §3.4 pruning runs, at the pair's
    * slot (a half plan's, G1 = G2 with b or bj, for (v, u) when v < u).
    */
  private def boundOf(plan: FSimPlan): (Int, Int) => Double = {
    val bounds = new Array[Double](plan.size)
    plan.sweep(null, bounds, 0, plan.size, 0)
    (u, v) => bounds(plan.index.slot(u, v))
  }

  test("upper bound dominates the true score (Eq. 6)") {
    for (seed <- Seq(15, 17, 19); variant <- Variant.paper) {
      val g1 = TestGraphs.uniform(10, 20, 2, seed)
      val g2 = TestGraphs.uniform(10, 20, 2, seed + 1)
      val c = cfg(variant)
      val upperBound = boundOf(new FSimPlan(g1, g2, c))
      for ((u, v, s) <- FSimLocal.compute(g1, g2, c).pairs) {
        val bound = upperBound(u, v)
        assert(s <= bound + 1e-9, s"χ=${variant.name} seed $seed ($u,$v): $s > $bound")
      }
    }
  }

  test("ub pruning keeps |H|, iterations and Σscore fixed (golden, UbConfig(0, 0.5))") {
    val g1 = TestGraphs.uniform(12, 24, 3, 13)
    val g2 = TestGraphs.uniform(12, 24, 3, 14)
    // (|H|, iterations, Σscore); unpruned |H| is 144, so every variant prunes
    val golden = Map(
      Variant.S -> (120, 53, 71.30732411426867),
      Variant.DP -> (115, 43, 53.358421229987535),
      Variant.B -> (100, 51, 39.91137377576072),
      Variant.BJ -> (90, 36, 22.953870861923946))
    for ((variant, (h, iters, sum)) <- golden) {
      val res = FSimLocal.compute(g1, g2,
        cfg(variant).copy(ub = Some(UbConfig(alpha = 0.0, beta = 0.5))))
      assert((res.numPairs, res.iterations) === ((h, iters)), variant.name)
      assert(res.pairs.map(_._3).sum === sum, variant.name)
    }
  }

  test("configs outside their domain are rejected: UbConfig outside [0, 1] or NaN, exactIters < 0") {
    for ((alpha, beta) <- Seq((Double.NaN, 0.5), (0.0, Double.NaN), (-1.0, 0.5), (1.5, 0.5),
                              (0.0, -0.1), (0.0, 2.0)))
      intercept[IllegalArgumentException](UbConfig(alpha, beta))
    intercept[IllegalArgumentException](cfg(Variant.BJ).copy(exactIters = Some(-3)))
    assert(UbConfig(0.0, 0.0).beta === 0.0 && UbConfig(1.0, 1.0).alpha === 1.0)
    assert(cfg(Variant.BJ).copy(exactIters = Some(0)).exactIters === Some(0))
  }

  /** Two labelled digraphs of at most 12 nodes with 1–3 labels, self-loops,
    * isolated nodes and repeated input edges allowed, and a paper variant at
    * θ ∈ {0, 1} with ε = 1e-8; G2 is G1 half the time, so exact simulations
    * (score 1) occur.
    */
  private val paperCase: Gen[(LocalGraph, LocalGraph, FSimConfig)] = for {
    g1 <- TestGraphs.small
    g2 <- Gen.oneOf(Gen.const(g1), TestGraphs.small)
    variant <- Gen.oneOf(Variant.paper)
    theta <- Gen.oneOf(0.0, 1.0)
  } yield (g1, g2, cfg(variant).copy(theta = theta))

  /** A [[paperCase]] with upper-bound updating, UbConfig(0, β) for β ∈ {0.5, 1}. */
  private val ubCase: Gen[(LocalGraph, LocalGraph, FSimConfig)] = paperCase.flatMap { case (g1, g2, c) =>
    Gen.oneOf(0.5, 1.0).map(beta => (g1, g2, c.copy(ub = Some(UbConfig(alpha = 0.0, beta = beta)))))
  }

  /** A [[paperCase]] turned to s or b, with w⁺ + w⁻ drawn up to 0.95 (0.01 and
    * 0.95 themselves half the time), either weight possibly 0, and
    * ε ∈ {1e-2, 1e-4, 1e-6}; kept when the Corollary-1 cap iterationBound + 1
    * is within the engine's cap of 100 iterations.
    */
  private val contractingCase: Gen[(LocalGraph, LocalGraph, FSimConfig)] = for {
    (g1, g2, c) <- paperCase
    variant <- Gen.oneOf(Variant.S, Variant.B)
    sum <- Gen.oneOf(Gen.choose(0.01, 0.95), Gen.oneOf(0.01, 0.95))
    share <- Gen.oneOf(Gen.choose(0.0, 1.0), Gen.oneOf(0.0, 1.0))
    epsilon <- Gen.oneOf(1e-2, 1e-4, 1e-6)
    drawn = c.copy(variant = variant, wPlus = sum * share, wMinus = sum - sum * share, epsilon = epsilon)
    if drawn.iterationBound < FSimPlan.MaxIters
  } yield (g1, g2, drawn)

  /** Checks `prop` on 300 cases of a fixed seed, one worker. */
  private def check(prop: Prop): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(300).withWorkers(1)
      .withInitialSeed(Seed(20210419L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("P1 over generated graphs: every score lies in [0, 1]") {
    val drawn = collection.mutable.Set[(Variant, Double)]()
    check(Prop.forAll(paperCase) { case (g1, g2, c) =>
      drawn += ((c.variant, c.theta))
      FSimLocal.compute(g1, g2, c).pairs.forall { case (_, _, s) => s >= 0.0 && s <= 1.0 }
    })
    assert(drawn.size === 8, s"not every paper variant at θ = 0 and θ = 1: $drawn")
  }

  test("P2 over generated graphs: score ≥ 1 − 1e-6 exactly on the exact χ-simulation") {
    val drawn = collection.mutable.Set[(Variant, Double)]()
    var ones = 0
    check(Prop.forAll(paperCase) { case (g1, g2, c) =>
      drawn += ((c.variant, c.theta))
      val exact = ExactSimulation.relation(g1, g2, c.variant)
      val res = FSimLocal.compute(g1, g2, c)
      (0 until g1.n).forall(u => (0 until g2.n).forall { v =>
        val isOne = res.score(u, v) >= 1.0 - OneTol
        if (isOne) ones += 1
        isOne == exact(u).get(v)
      })
    })
    assert(drawn.size === 8, s"not every paper variant at θ = 0 and θ = 1: $drawn")
    assert(ones > 0, "no pair scores 1")
  }

  test("Corollary 1 over generated graphs: s and b reach max |Δ| < ε within iterationBound + 1 sweeps") {
    val drawn = collection.mutable.Set[(Variant, Double)]()
    check(Prop.forAll(contractingCase) { case (g1, g2, c) =>
      drawn += ((c.variant, c.epsilon))
      val res = FSimLocal.compute(g1, g2, c)
      res.iterations <= c.iterationBound + 1 && res.finalDelta < c.epsilon
    })
    assert(drawn.size === 6, s"not every (variant, ε) was drawn: $drawn")
  }

  /** `g` with node u renamed perm(u). */
  private def renamed(g: LocalGraph, perm: Array[Int]): LocalGraph = {
    val labels = new Array[String](g.n)
    for (u <- 0 until g.n) labels(perm(u)) = g.labels(u)
    LocalGraph.fromEdges(labels, g.edges.map { case (u, v) => (perm(u), perm(v)) }.toSeq)
  }

  // dp and bj are left out: their greedy Mχ breaks ties by node id, so renaming can move a score.
  test("relabelling the nodes moves no s or b score by more than 1e-12") {
    val drawn = collection.mutable.Set[(Variant, Double, Boolean)]()
    val variant = Gen.oneOf(Variant.S, Variant.B)
    check(Prop.forAll(paperCase, variant, Gen.choose(0, 8), Gen.long) { case ((g1, g2, c0), v, k, seed) =>
      val c = c0.copy(variant = v, exactIters = Some(k)) // a fixed count, so the ε stop cannot differ
      val rnd = new Random(seed)
      val p1 = rnd.shuffle((0 until g1.n).toVector).toArray
      val p2 = if (g2 eq g1) p1 else rnd.shuffle((0 until g2.n).toVector).toArray
      val h1 = renamed(g1, p1)
      val h2 = if (g2 eq g1) h1 else renamed(g2, p2)
      drawn += ((v, c.theta, g2 eq g1))
      val (before, after) = (FSimLocal.compute(g1, g2, c), FSimLocal.compute(h1, h2, c))
      (0 until g1.n).forall(u => (0 until g2.n).forall(w =>
        math.abs(before.score(u, w) - after.score(p1(u), p2(w))) <= 1e-12))
    })
    assert(drawn.size === 8, s"not every (variant, θ, G2 = G1) was drawn: $drawn")
  }

  test("Corollary 1 fails for dp: a 3-node pair still moves by ≥ ε at iterationBound + 1") {
    // Greedy matching is not 1-Lipschitz in its weights, so dp's update need
    // not contract: this run settles into a period-2 cycle with max |Δ| ≈ 0.0277
    // (DESIGN.md §5). s converges on the same pair in one sweep.
    val g1 = LocalGraph.fromEdges(Array("l0", "l0", "l0"), Seq((0, 0), (0, 1), (1, 0), (1, 1), (2, 0)))
    val g2 = LocalGraph.fromEdges(Array("l0", "l0", "l0"), Seq((0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1)))
    val c = FSimConfig(Variant.DP, wPlus = 0.4, wMinus = 0.4, theta = 1.0, epsilon = 0.01)
    val res = FSimLocal.compute(g1, g2, c)
    assert(res.iterations === c.iterationBound + 1)
    assert(res.finalDelta >= c.epsilon)
    assert(FSimLocal.compute(g1, g2, c.copy(variant = Variant.S)).finalDelta < c.epsilon)
  }

  test("ub pruning never removes or lowers a pair that scores 1 without bounds") {
    var ones = 0
    val prop = Prop.forAll(ubCase) { case (g1, g2, c) =>
      val ub = FSimLocal.compute(g1, g2, c)
      val kept = ub.pairs.map(p => (p._1, p._2)).toSet
      FSimLocal.compute(g1, g2, c.copy(ub = None)).pairs.filter(_._3 >= 1.0 - 1e-9).forall {
        case (u, v, s) =>
          ones += 1
          kept((u, v)) && ub.score(u, v) >= s - 1e-12
      }
    }
    check(prop)
    assert(ones > 0, "no pair scores 1")
  }

  test("Eq. 6 soundness: every maintained score is at most its bound, with and without pruning") {
    val drawn = collection.mutable.Set[(Variant, Double)]()
    var checked = 0
    val prop = Prop.forAll(ubCase) { case (g1, g2, c) =>
      drawn += ((c.variant, c.theta))
      val upperBound = boundOf(new FSimPlan(g1, g2, c))
      Seq(c, c.copy(ub = None)).forall { run =>
        FSimLocal.compute(g1, g2, run).pairs.forall { case (u, v, s) =>
          checked += 1
          s <= upperBound(u, v) + 1e-9
        }
      }
    }
    check(prop)
    assert(drawn.size === 8, s"not every paper variant at θ = 0 and θ = 1: $drawn")
    assert(checked > 0, "no maintained pair")
  }

  test("result lookup: unmaintained pairs score 0") {
    val g1 = LocalGraph.fromEdges(Array("a"), Seq.empty)
    val g2 = LocalGraph.fromEdges(Array("b"), Seq.empty)
    val res = FSimLocal.compute(g1, g2, cfg(Variant.S).copy(theta = 1.0))
    assert(res.numPairs === 0)
    assert(res.score(0, 0) === 0.0)
  }

  test("result lookup: ids outside G1 × G2 are rejected, not read from another row") {
    val g = TestGraphs.uniform(3, 4, 1, 2)
    val res = FSimLocal.compute(g, g, cfg(Variant.S))
    assert(res.numPairs === 9)
    for ((u, v) <- Seq((0, 3), (1, -1), (-1, 0), (2, 3), (3, 0)))
      intercept[IllegalArgumentException](res.score(u, v))
  }

  test("argmaxByU keeps ties within 1e-9 of the first best score, in ascending v") {
    // u = 2: 0.5 + 0.9e-9 ties with 0.5, and 0.5 + 1.8e-9 beats 0.5, the
    // first score of the best set, by more than 1e-9; u = 3 has no pair
    val n2 = 4
    val rows = Seq(
      0 -> Seq(0.9, 0.9 + 0.9e-9, 0.9 - 0.9e-9, 0.3),
      1 -> Seq(0.2, 0.7, 0.7 + 2e-9),
      2 -> Seq(0.5, 0.5 + 0.9e-9, 0.5 + 1.8e-9),
      4 -> Seq(0.1))
    val index = new PairIndex(Array.range(0, 5),
      Array.tabulate(5)(u => rows.toMap.get(u).fold(Array.empty[Int])(_.indices.toArray)), n2, half = false)
    val res = new FSimResult(index, null, rows.flatMap(_._2).toArray, 1, 0.0)
    assert(res.argmaxByU() === Map(0 -> Seq(0, 1, 2), 1 -> Seq(2), 2 -> Seq(2), 4 -> Seq(0)))
  }

  test("scores do not depend on the thread count (bj, with and without UbConfig(0, 0.5))") {
    val g = DbisGen.generate(6, 3, 11L).graph
    def bits(res: FSimResult) = res.pairs.map(p => java.lang.Double.doubleToLongBits(p._3)).toArray
    for (ub <- Seq(None, Some(UbConfig(alpha = 0.0, beta = 0.5)))) {
      val c = cfg(Variant.BJ).copy(theta = 1.0, ub = ub)
      val pool = new java.util.concurrent.ForkJoinPool(1)
      val oneThread =
        try pool.submit(new java.util.concurrent.Callable[FSimResult] {
          def call(): FSimResult = FSimLocal.compute(g, g, c)
        }).get()
        finally pool.shutdown()
      val common = FSimLocal.compute(g, g, c)
      assert(oneThread.numPairs === common.numPairs, s"ub=$ub")
      assert(bits(oneThread) sameElements bits(common), s"ub=$ub")
    }
  }

  test("a plan round-tripped through Java serialization scores the same") {
    // the Spark engine broadcasts the plan; its per-thread scratch is transient
    val g = DbisGen.generate(6, 3, 11L).graph
    val c = cfg(Variant.BJ).copy(theta = 1.0, ub = Some(UbConfig(alpha = 0.2, beta = 0.5)))
    val plan = new FSimPlan(g, g, c)
    val bytes = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(plan); out.close()
    val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[FSimPlan]
    def run(p: FSimPlan) = p.converge((prev, next) => p.sweep(prev, next, 0, p.size, 0))
    val (a, b) = (run(plan), run(copy))
    assert(a.numPairs === b.numPairs)
    assert(a.pairs.map(_._3).toSeq === b.pairs.map(_._3).toSeq)
  }

  // ---- cost-balanced pair ranges ----

  private def bits(res: FSimResult) = res.pairs.map(p => java.lang.Double.doubleToLongBits(p._3)).toArray

  test("scores do not depend on how the sweep is cut (bj, with and without UbConfig(0, 0.5))") {
    val g = DbisGen.generate(6, 3, 11L).graph
    for (ub <- Seq(None, Some(UbConfig(alpha = 0.0, beta = 0.5)))) {
      val c = cfg(Variant.BJ).copy(theta = 1.0, ub = ub)
      val want = bits(FSimLocal.compute(g, g, c))
      val plan = new FSimPlan(g, g, c)
      for (k <- Seq(1, 3, FSimPlan.localRanges)) {
        val cuts = plan.cuts(k)
        val res = plan.converge { (prev, next) =>
          FSimPlan.maxInParallel(cuts)((lo, hi) => plan.sweep(prev, next, lo, hi, lo))
        }
        assert(bits(res) sameElements want, s"ub=$ub, $k ranges")
      }
    }
  }

  /** A plan over graphs whose edges hit node 0 a third of the time, so a
    * few pairs hold most cells, and a range count k.
    */
  private val cutsCase: Gen[(FSimPlan, Int)] = for {
    n <- Gen.choose(1, 20)
    m <- Gen.choose(0, 4 * n)
    node = Gen.frequency(1 -> Gen.const(0), 2 -> Gen.choose(0, n - 1))
    edges <- Gen.listOfN(m, Gen.zip(node, node))
    nLabels <- Gen.choose(1, 3)
    labels <- Gen.listOfN(n, Gen.choose(0, nLabels - 1).map(l => s"l$l"))
    theta <- Gen.oneOf(0.0, 1.0)
    disjoint <- Gen.prob(0.1) // at θ = 1, no candidate pair
    k <- Gen.frequency(3 -> Gen.choose(1, 8), 1 -> Gen.choose(9, 1000))
  } yield {
    val g1 = LocalGraph.fromEdges(labels.toArray, edges)
    val g2 = if (disjoint) LocalGraph.fromEdges(labels.map(_ + "'").toArray, edges) else g1
    (new FSimPlan(g1, g2, cfg(Variant.BJ).copy(theta = theta)), k)
  }

  /** The sweep cost per pair that [[FSimPlan.cuts]] balances: its cells, read from the plan's private
    * CSR offsets `off` by reflection, plus PairCost.
    */
  private def costs(plan: FSimPlan): Int => Long = {
    val f = classOf[FSimPlan].getDeclaredFields.find(f => f.getName == "off" || f.getName.endsWith("$$off")).get
    f.setAccessible(true)
    val off = f.get(plan).asInstanceOf[Array[Int]]
    p => off(2 * p + 2) - off(2 * p) + FSimPlan.PairCost
  }

  test("cuts run from 0 to size and no range costs over ⌈total/k⌉ plus one pair") {
    var empty, fewerThanK = 0
    val prop = Prop.forAll(cutsCase) { case (plan, k) =>
      if (plan.size == 0) empty += 1
      if (plan.size < k) fewerThanK += 1
      val c = plan.cuts(k)
      val cost = costs(plan)
      val total = (0 until plan.size).map(cost).sum
      val cap = (total + k - 1) / k
      c.length == k + 1 && c(0) == 0 && c(k) == plan.size &&
        (0 until k).forall { j =>
          val range = c(j) until c(j + 1)
          range.isEmpty || range.map(cost).sum <= cap + range.map(cost).max
        }
    }
    check(prop)
    assert(empty > 0 && fewerThanK > 0, s"empty plans: $empty, size < k: $fewerThanK")
  }
}
