package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.{SparkSpec, TestGraphs}
import repro.graph.GraphFrames

/** The Spark engine must agree with the local engine bit-for-bit: both run
  * the same FSimPlan, so only the distribution of the sweep differs.
  */
class FSimSparkSpec extends SparkSpec {

  private def assertEnginesAgree(cfg: FSimConfig, seed: Int, n1: Int = 9, n2: Int = 10): Unit = {
    val g1 = TestGraphs.uniform(n1, 2 * n1, 2, seed)
    val g2 = TestGraphs.uniform(n2, 2 * n2, 2, seed + 77)
    assertAgree(FSimLocal.compute(g1, g2, cfg), FSimSpark.compute(spark, g1, g2, cfg))
  }

  private def assertAgree(local: FSimResult, dist: FSimResult): Unit = {
    val distScores = dist.collectScores()
    assert(distScores.size === local.numPairs, "candidate-pair sets differ")
    for (((u, v), s) <- distScores)
      assert(math.abs(s - local.score(u.toInt, v.toInt)) < 1e-9,
        s"pair ($u,$v): spark=$s local=${local.score(u.toInt, v.toInt)}")
    assert(dist.iterations === local.iterations,
      s"iterations: spark=${dist.iterations} local=${local.iterations}")
  }

  // exactIters pins both engines to the same fixed number of sweeps — an
  // equally strong equivalence check without ~40 convergence rounds per test.
  for (variant <- Variant.paper; seed <- Seq(1, 2)) {
    test(s"spark == local, χ=${variant.name}, θ=0, seed $seed") {
      assertEnginesAgree(
        FSimConfig(variant, 0.4, 0.4, theta = 0.0, exactIters = Some(5)), seed)
    }
  }

  for (variant <- Variant.paper) {
    test(s"spark == local, χ=${variant.name}, θ=1 (label-constrained)") {
      assertEnginesAgree(
        FSimConfig(variant, 0.4, 0.4, theta = 1.0, exactIters = Some(5)), 5)
    }
  }

  test("spark == local at full ε-convergence (χ=bj)") {
    assertEnginesAgree(FSimConfig(Variant.BJ, 0.4, 0.4, theta = 0.0, epsilon = 0.01), 3)
  }

  test("spark == local with Jaro-Winkler labels and θ=0.5") {
    val cfg = FSimConfig(Variant.S, 0.3, 0.5, labelSim = LabelSim.JaroWinkler,
      theta = 0.5, exactIters = Some(5))
    val g1 = TestGraphs.random(12, 24, 5, 31)
    val g2 = TestGraphs.random(12, 24, 5, 32)
    val local = FSimLocal.compute(g1, g2, cfg)
    val dist = FSimSpark.compute(spark, g1, g2, cfg).collectScores()
    assert(dist.size === local.numPairs)
    for (((u, v), s) <- dist)
      assert(math.abs(s - local.score(u.toInt, v.toInt)) < 1e-9)
  }

  test("spark == local with asymmetric weights (w+=0.7, w-=0.1)") {
    assertEnginesAgree(FSimConfig(Variant.DP, 0.7, 0.1, exactIters = Some(5)), 8)
  }

  test("spark engine on the paper's Figure 1 reproduces the Table 2 check matrix") {
    import repro.exp.Table2._
    for (variant <- Variant.paper) {
      val cfg = FSimConfig(variant, 0.4, 0.4, theta = 0.0, exactIters = Some(12))
      val scores = FSimSpark.compute(spark, g1, g2, cfg).collectScores()
      for ((vName, vId) <- vs) {
        val expected = paper((variant.name, vName))._1
        val s = scores((u.toLong, vId.toLong))
        assert((s >= 1.0 - 1e-6) === expected, s"χ=${variant.name} (u,$vName): $s")
      }
    }
  }

  test("spark == local with upper-bound updating (α=0, β=0.5)") {
    val cfg = FSimConfig(Variant.BJ, 0.4, 0.4, theta = 1.0, exactIters = Some(5),
      ub = Some(UbConfig(0.0, 0.5)))
    val g1 = TestGraphs.uniform(9, 18, 2, 6)
    val g2 = TestGraphs.uniform(10, 20, 2, 83)
    val local = FSimLocal.compute(g1, g2, cfg)
    assert(local.numPairs < FSimLocal.compute(g1, g2, cfg.copy(ub = None)).numPairs,
      "the bounds prune no pair")
    assertAgree(local, FSimSpark.compute(spark, g1, g2, cfg))
  }

  test("spark == local on a hub-skewed graph, blocks cut by cell cost") {
    // node 0 links to and from every other node, so the pairs (0, v), first
    // in u order, hold most neighbour cells
    val n = 30
    val hub = (1 until n).flatMap(i => Seq((0, i), (i, 0)))
    val ring = (1 until n).map(i => (i, i % (n - 1) + 1))
    val g = repro.graph.LocalGraph.fromEdges(Array.fill(n)("a"), hub ++ ring)
    val cfg = FSimConfig(Variant.BJ, 0.4, 0.4, theta = 1.0, exactIters = Some(5))
    val plan = new FSimPlan(g, g, cfg)
    val k = math.max(2, spark.sparkContext.defaultParallelism)
    val byCount = (0 to k).map(b => (plan.size.toLong * b / k).toInt)
    assert(plan.cuts(k).toSeq != byCount, "balanced cuts equal count cuts")
    assertAgree(FSimLocal.compute(g, g, cfg), FSimSpark.compute(spark, g, g, cfg))
  }

  test("spark == local in the §4.3 SimRank configuration") {
    val g = TestGraphs.uniform(9, 18, 1, 7)
    val cfg = SimRankRoleSim.simRankConfig(0.8, 5)
    assertAgree(FSimLocal.compute(g, g, cfg), FSimSpark.compute(spark, g, g, cfg))
  }

  test("spark == local in the §4.3 RoleSim configuration") {
    val g = SimRankRoleSim.undirectedView(TestGraphs.uniform(9, 18, 1, 7))
    val cfg = SimRankRoleSim.roleSimConfig(0.2, 5)
    assertAgree(FSimLocal.compute(g, g, cfg), FSimSpark.compute(spark, g, g, cfg))
  }

  test("duplicate edges in the input frames are dropped, as in LocalGraph.fromEdges") {
    import spark.implicits._
    val g1 = TestGraphs.uniform(9, 18, 2, 4)
    val g2 = TestGraphs.uniform(10, 20, 2, 81)
    val cfg = FSimConfig(Variant.BJ, 0.4, 0.4, exactIters = Some(5))
    val (a, b) = g1.edges.next()
    val edges1 = GraphFrames.edgesDF(spark, g1).union(Seq((a.toLong, b.toLong)).toDF("src", "dst"))
    assert(GraphFrames.toLocal(GraphFrames.nodesDF(spark, g1), edges1).duplicateEdges === 1)
    assertAgree(FSimLocal.compute(g1, g2, cfg),
      FSimSpark.compute(spark, GraphFrames.nodesDF(spark, g1), edges1,
        GraphFrames.nodesDF(spark, g2), GraphFrames.edgesDF(spark, g2), cfg))
  }

  test("scores and iterations do not depend on the shuffle partition count") {
    val g1 = TestGraphs.uniform(9, 18, 2, 3)
    val g2 = TestGraphs.uniform(10, 20, 2, 80)
    val cfg = FSimConfig(Variant.BJ, 0.4, 0.4, theta = 0.0, epsilon = 0.01)
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    val runs = try Seq(1, 4, 64).map { parts =>
      spark.conf.set(key, parts.toLong)
      val res = FSimSpark.compute(spark, GraphFrames.nodesDF(spark, g1), GraphFrames.edgesDF(spark, g1),
        GraphFrames.nodesDF(spark, g2), GraphFrames.edgesDF(spark, g2), cfg)
      (res.collectScores(), res.iterations)
    } finally spark.conf.set(key, saved)
    assert(runs.distinct.size === 1)
  }

  /** The run's result and the number of Spark jobs it started. */
  private def countingJobs(run: => FSimResult): (FSimResult, Int) = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    try {
      val res = run
      ListenerBusDrain(sc)
      (res, jobs.get)
    } finally sc.removeSparkListener(listener)
  }

  test("one Spark job per iteration, from graphs and from frames") {
    val g1 = TestGraphs.uniform(9, 18, 2, 3)
    val g2 = TestGraphs.uniform(10, 20, 2, 80)
    val cfg = FSimConfig(Variant.BJ, 0.4, 0.4, theta = 0.0, epsilon = 0.01)
    val (n1, e1) = (GraphFrames.nodesDF(spark, g1), GraphFrames.edgesDF(spark, g1))
    val (n2, e2) = (GraphFrames.nodesDF(spark, g2), GraphFrames.edgesDF(spark, g2))
    for ((res, jobs) <- Seq(countingJobs(FSimSpark.compute(spark, g1, g2, cfg)),
                            countingJobs(FSimSpark.compute(spark, n1, e1, n2, e2, cfg)))) {
      assert(res.iterations > 1)
      assert(jobs === res.iterations)
    }
  }

  test("empty candidate set returns an empty result") {
    val g1 = repro.graph.LocalGraph.fromEdges(Array("a"), Seq.empty)
    val g2 = repro.graph.LocalGraph.fromEdges(Array("b"), Seq.empty)
    val res = FSimSpark.compute(spark, g1, g2, FSimConfig(Variant.S, 0.4, 0.4, theta = 1.0))
    assert(res.numPairs === 0)
  }

  test("candidate pairs under θ=1 equal the same-label cross product (oracle)") {
    val g1 = TestGraphs.uniform(12, 20, 3, 41)
    val g2 = TestGraphs.uniform(13, 22, 3, 42)
    val n1 = GraphFrames.nodesDF(spark, g1)
    val n2 = GraphFrames.nodesDF(spark, g2)
    val candCount = n1.as("a").crossJoin(n2.as("b"))
      .filter(org.apache.spark.sql.functions.expr("a.label = b.label"))
      .selectExpr("count(*) as cnt")
    repro.Oracle.assertEquivalent(candCount,
      "SELECT count(*) AS cnt FROM n1, n2 WHERE n1.label = n2.label",
      "n1" -> n1, "n2" -> n2)
    val res = FSimSpark.compute(spark, g1, g2, FSimConfig(Variant.S, 0.4, 0.4, theta = 1.0))
    assert(res.numPairs.toLong === candCount.first().getLong(0))
  }
}
