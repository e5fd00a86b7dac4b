package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.exp.Table6
import repro.graph.{DbisGen, GraphFrames, GraphGen, LocalGraph}
import repro.matching.{FSimMatcher, Matcher}
import scala.collection.mutable
import scala.util.Random

/** The four workloads. Seed 0 reproduces the paper-table graphs (DbisGen
  * seed 11, GraphGen 42, amazonLike 7, queries 99). Seed n adds n to the
  * DbisGen, amazonLike and query seeds. The JDK-like and Yeast-like graphs
  * are instead the seed-0 graph with its node ids shuffled by seed n: their
  * |H| and iteration count swing by a quarter from one generator seed to the
  * next, which would drown any change in the code, while a relabelled graph
  * poses the same problem in a different node order.
  */
object Workloads {

  val names: Seq[String] = Seq("dbis-bj", "jdk-ub", "spark-yeast", "query-amazon")

  def run(name: String, ctx: Ctx): Unit = {
    name match {
      case "dbis-bj"      => dbisBj(ctx)
      case "jdk-ub"       => jdkUb(ctx)
      case "spark-yeast"  => sparkYeast(ctx)
      case "query-amazon" => queryAmazon(ctx)
    }
    if (ctx.opts.trace) PerLayer.complete(ctx)
  }

  /** FSim_bj, θ = 1, indicator L — the paper's case-study configuration. */
  val bj: FSimConfig = FSimConfig(Variant.BJ, wPlus = 0.4, wMinus = 0.4, theta = 1.0)

  /** Set-ups per run; setup_s is their median. Generation takes tens of
    * milliseconds and the first few run before the JIT has compiled it, so
    * with fewer set-ups the median lands on either side of that step.
    */
  val SetupReps = 25

  private def refFor[A](ctx: Ctx, refs: Map[Long, A]): Option[A] =
    if (ctx.opts.smoke) None else refs.get(ctx.opts.seed)

  private def putGraph(ctx: Ctx, genS: Double, g: LocalGraph): Unit = {
    PerLayer.put(ctx, "graph.gen_s", genS)
    PerLayer.put(ctx, "graph.nodes", g.n)
    PerLayer.put(ctx, "graph.edges", g.m.toDouble)
  }

  /** `g` with node u renamed perm(u), perm a seeded shuffle; seed 0 keeps `g`. */
  def permuted(g: LocalGraph, seed: Long): LocalGraph =
    if (seed == 0) g
    else {
      val perm = new Random(seed).shuffle((0 until g.n).toVector).toArray
      val labels = new Array[String](g.n)
      for (u <- 0 until g.n) labels(perm(u)) = g.labels(u)
      LocalGraph.fromEdges(labels, g.edges.map { case (u, v) => (perm(u), perm(v)) }.toSeq)
    }

  private def warmup(ctx: Ctx)(body: => Unit): Unit = {
    val (_, s) = Time(ctx.tracer.span("warmup")(body))
    ctx.shape("warmup_s") = s
    if (ctx.opts.trace) PerLayer.put(ctx, "bench.warmup_s", s)
  }

  // ------------------------------------------------------------------ dbis-bj

  /** Stored |H|, iterations and Σscore of FSim_bj on the DBIS-like graph. */
  val dbisRefs: Map[Long, Ref] = Map(
    0L -> Ref(605965, 8, 210731.7358362628),
    1L -> Ref(605965, 8, 210759.52148133778))

  private def dbisBj(ctx: Ctx): Unit = {
    val seed = 11L + ctx.opts.seed
    val (apa, ppv) = if (ctx.opts.smoke) (6, 3) else (50, 14) // Tables 7/8 parameters
    val (data, setupS) = ctx.tracer.span("setup") {
      Time.repeated(SetupReps)(ctx.tracer.span("DbisGen.generate")(DbisGen.generate(apa, ppv, seed)))
    }
    val g = data.graph
    warmup(ctx)(FSimLocal.compute(g, g, bj))

    val ref = refFor(ctx, dbisRefs)
    val www = data.venueNode("WWW")
    val ops = new OpSamples
    var last: FSimResult = null
    ctx.closedLoop(minOps = if (ctx.opts.trace) 2 else 1) { traced =>
      ctx.op {
        val (res, s, d) = Local.solve(ctx, g, g, bj)
        ops.add(s, traced, d); last = res; res
      } { res =>
        val selfMisses = (0 until g.n).count(u => math.abs(res.score(u, u) - 1.0) > 1e-9)
        val top5 = data.venues.sortBy(v => (-res.score(www, v.id), v.name)).take(5).map(_.name)
        Local.checkScores(res, ref) ++
          (if (selfMisses > 0) Seq(s"P2: $selfMisses nodes score != 1 against themselves") else Nil) ++
          (if (ctx.opts.seed == 0 && !ctx.opts.smoke && top5.count(_.startsWith("WWW_")) < 2)
            Seq(s"Table 7: FSim_bj top-5 for WWW is ${top5.mkString(", ")}") else Nil)
      }
    }

    if (last != null) ctx.shape("result") = Local.summary(last)
    if (!ctx.opts.trace) ops.putEndToEnd(ctx, setupS)
    else if (last != null) {
      putGraph(ctx, setupS, g)
      val solveS = Time.median(ops.seconds.toSeq)
      Local.putLayer(ctx, g, g, bj, last, solveS, Local.prepareSeconds(ctx, g, g, bj))
      for (v <- Variant.paper) ctx.tracer.span(s"variant:${v.name}") {
        val cfg = bj.copy(variant = v)
        val prep = Local.prepareSeconds(ctx, g, g, cfg)
        val two = Time(ctx.tracer.span("FSimLocal.compute(2 iterations)") {
          FSimLocal.compute(g, g, cfg.copy(exactIters = Some(2)))
        })._2
        PerLayer.put(ctx, s"local.iter_s.${v.name}", (two - prep) / 2)
      }
      putThreads1(ctx, g, bj, solveS)
      ops.putJvm(ctx)
    }
  }

  private def putThreads1(ctx: Ctx, g: LocalGraph, cfg: FSimConfig, solveS: Double): Unit = {
    val t1 = Time(ctx.tracer.span("FSimLocal.compute(1 thread)") {
      Local.onOneThread(FSimLocal.compute(g, g, cfg))
    })._2
    PerLayer.put(ctx, "local.threads1_s", t1)
    PerLayer.put(ctx, "local.speedup", t1 / solveS)
  }

  // ------------------------------------------------------------------- jdk-ub

  /** The JDK-like shape of GraphGen.datasets (41 labels, skew 0.9, average
    * degree 23.5) at `JdkScale` of its nodes and edges; see README.md for
    * why the benchmark does not run it at full size.
    */
  val JdkScale = 0.5

  def jdkConfig(scale: Double): GraphGen.Config = {
    val full = GraphGen.datasets.find(_.name == "JDK").get
    full.copy(nodes = (full.nodes * scale).toInt, edges = (full.edges * scale).toInt)
  }

  /** Stored |H|, iterations and Σscore with bounds on. Relabelling keeps |H|
    * but may break greedy-matching ties differently, so Σscore is per seed.
    */
  val jdkRefs: Map[Long, Ref] = Map(
    0L -> Ref(14872, 7, 6682.984641316806),
    1L -> Ref(14872, 7, 6682.9846413168125))

  /** §3.4 upper-bound updating at the paper's defaults α = 0, β = 0.5. */
  val bjUb: FSimConfig = bj.copy(ub = Some(UbConfig(alpha = 0.0, beta = 0.5)))

  private def jdkUb(ctx: Ctx): Unit = {
    val seed = 42L
    val scale = if (ctx.opts.smoke) 0.05 else JdkScale
    val (g, setupS) = ctx.tracer.span("setup") {
      Time.repeated(SetupReps)(ctx.tracer.span("GraphGen.generate") {
        permuted(GraphGen.generate(jdkConfig(scale), seed), ctx.opts.seed)
      })
    }
    warmup(ctx) {
      val small = GraphGen.generate(jdkConfig(scale / 4), seed)
      FSimLocal.compute(small, small, bj)
      FSimLocal.compute(small, small, bjUb)
    }

    // Bounds-off reference: every pair at 1.0 there must be kept, at 1.0.
    val (off, offS) = Time(ctx.tracer.span("reference") {
      ctx.tracer.span("FSimLocal.compute(bounds off)")(FSimLocal.compute(g, g, bj))
    })
    val ones = off.pairs.collect { case (u, v, s) if s >= 1.0 - 1e-9 => (u, v) }.toArray
    ctx.checkReference(Local.checkScores(off, None))

    val ref = refFor(ctx, jdkRefs)
    val ops = new OpSamples
    var last: FSimResult = null
    ctx.closedLoop(minOps = if (ctx.opts.trace) 2 else 1) { traced =>
      ctx.op {
        val (res, s, d) = Local.solve(ctx, g, g, bjUb)
        ops.add(s, traced, d); last = res; res
      } { res =>
        val lost = ones.count { case (u, v) => res.score(u, v) < 1.0 - 1e-9 }
        Local.checkScores(res, ref) ++
          (if (lost > 0) Seq(s"$lost pairs at 1.0 without bounds are pruned or below 1.0") else Nil)
      }
    }
    ctx.shape("pairs_at_1") = ones.length
    if (last != null) ctx.shape("result") = Local.summary(last)

    if (!ctx.opts.trace) ops.putEndToEnd(ctx, setupS)
    else if (last != null) {
      putGraph(ctx, setupS, g)
      val solveS = Time.median(ops.seconds.toSeq)
      val prepOn = Local.prepareSeconds(ctx, g, g, bjUb)
      val prepOff = Local.prepareSeconds(ctx, g, g, bj)
      Local.putLayer(ctx, g, g, bjUb, last, solveS, prepOn)
      PerLayer.put(ctx, "ub.bound_s", prepOn - prepOff)
      PerLayer.put(ctx, "ub.pruned_pairs", off.numPairs - last.numPairs)
      PerLayer.put(ctx, "ub.prune_ratio", (off.numPairs - last.numPairs).toDouble / off.numPairs)
      PerLayer.put(ctx, "ub.net_s", solveS - offS)
      putThreads1(ctx, g, bjUb, solveS)
      ops.putJvm(ctx)
    }
  }

  // -------------------------------------------------------------- spark-yeast

  /** Stored |H|, iterations and Σscore on the (relabelled) Yeast-like graph. */
  val yeastRefs: Map[Long, Ref] = Map(
    0L -> Ref(38036, 6, 10088.362277283777),
    1L -> Ref(38036, 6, 10088.36181077132))

  def session(): SparkSession =
    SparkSession.builder
      .master("local[4]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1") // as the repo's jobs and tests
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", java.nio.file.Paths.get(".bench_build", "spark-local").toAbsolutePath.toString)
      .getOrCreate()

  private def sparkYeast(ctx: Ctx): Unit = {
    val seed = 42L
    val yeast = GraphGen.datasets.find(_.name == "Yeast").get
    val shape = if (ctx.opts.smoke) yeast.copy(nodes = 60, edges = 180) else yeast

    // Set-up as a user pays it: graph, session, frames. Repeated with a
    // fresh session each time; the last session stays up.
    val genS, sessionS, framesS = mutable.ArrayBuffer[Double]()
    var spark: SparkSession = null
    var g: LocalGraph = null
    var frames: (DataFrame, DataFrame) = null
    val reps = 3
    ctx.tracer.span("setup") {
      for (rep <- 1 to reps) {
        if (spark != null) spark.stop()
        val (g0, s0) = Time(ctx.tracer.span("GraphGen.generate") {
          permuted(GraphGen.generate(shape, seed), ctx.opts.seed)
        })
        val (s1, t1) = Time(ctx.tracer.span("SparkSession")(session()))
        val (f, t2) = Time(ctx.tracer.span("GraphFrames")(
          (GraphFrames.nodesDF(s1, g0), GraphFrames.edgesDF(s1, g0))))
        genS += s0; sessionS += t1; framesS += t2
        spark = s1; g = g0; frames = f
      }
    }
    val setupS = Time.median(genS.indices.map(i => genS(i) + sessionS(i) + framesS(i)))
    ctx.shape("spark_master") = spark.sparkContext.master
    ctx.shape("spark_shuffle_partitions") = spark.conf.get("spark.sql.shuffle.partitions")
    ctx.shape("spark_ui") = spark.conf.get("spark.ui.enabled")
    ctx.shape("spark_auto_broadcast_join_threshold") = spark.conf.get("spark.sql.autoBroadcastJoinThreshold")
    val (nodes, edges) = frames

    try {
      // Two iterations on the real frames compile the same plans the timed
      // solve runs; plans for a smaller graph differ and compile again.
      warmup(ctx) {
        FSimSpark.compute(spark, nodes, edges, nodes, edges, bj.copy(exactIters = Some(2))).collectScores()
      }
      // The local engine is the reference the Spark scores must equal.
      val (local, localS) = Time(ctx.tracer.span("reference") {
        ctx.tracer.span("FSimLocal.compute")(FSimLocal.compute(g, g, bj))
      })
      val expected: Map[(Long, Long), Double] =
        local.pairs.map { case (u, v, s) => (u.toLong, v.toLong) -> s }.toMap
      ctx.checkReference(Local.checkScores(local, None))

      val probe = if (ctx.opts.trace) Some(new SparkProbe(spark.sparkContext)) else None
      val ref = refFor(ctx, yeastRefs)
      val ops = new OpSamples
      val computeS, collectS = mutable.ArrayBuffer[Double]()
      val sums = mutable.ArrayBuffer[SparkSums]()
      var iterations = 0
      ctx.closedLoop(minOps = 1) { traced =>
        val before = probe.map(_.snapshot())
        ctx.op {
          val ((scores, s), d) = JvmProbe.measure {
            val (res, c1) = Time(ctx.tracer.span("FSimSpark.compute")(
              FSimSpark.compute(spark, nodes, edges, nodes, edges, bj)))
            val (scores, c2) = Time(ctx.tracer.span("collectScores")(res.collectScores()))
            computeS += c1; collectS += c2; iterations = res.iterations
            ((scores, res.iterations), c1 + c2)
          }
          ops.add(s, traced, d)
          scores
        } { case (scores, iters) =>
          val missing = expected.keysIterator.count(k => !scores.contains(k))
          val off = scores.count { case (k, s) => expected.get(k).forall(e => math.abs(e - s) > 1e-9) }
          val bad = scores.valuesIterator.count(s => !(s >= 0.0 && s <= 1.0))
          (if (missing + off > 0)
            Seq(s"Spark vs local: $missing pairs missing, $off extra or off by > 1e-9") else Nil) ++
            (if (bad > 0) Seq(s"$bad scores outside [0, 1]") else Nil) ++
            ref.toSeq.flatMap(_.check(scores.size, iters,
              scores.toSeq.sortBy(_._1).map(_._2).sum))
        }
        probe.foreach(p => sums += p.snapshot() - before.get)
      }

      ctx.shape("result") = Local.summary(local)
      if (!ctx.opts.trace) ops.putEndToEnd(ctx, setupS)
      else if (ops.seconds.nonEmpty) {
        putGraph(ctx, Time.median(genS.toSeq), g)
        PerLayer.put(ctx, "graph.frames_s", Time.median(framesS.toSeq))
        val localPrep = Local.prepareSeconds(ctx, g, g, bj)
        Local.putLayer(ctx, g, g, bj, local, localS, localPrep)
        val prep = Time(ctx.tracer.span("FSimSpark.compute(prepare)") {
          FSimSpark.compute(spark, nodes, edges, nodes, edges, bj.copy(exactIters = Some(0)))
        })._2
        val wall = Time.median(ops.seconds.toSeq)
        val it = math.max(1, iterations)
        def med(f: SparkSums => Double): Double = Time.median(sums.map(f).toSeq)
        PerLayer.put(ctx, "spark.prepare_s", prep)
        PerLayer.put(ctx, "spark.iter_s", (Time.median(computeS.toSeq) - prep) / it)
        PerLayer.put(ctx, "spark.collect_s", Time.median(collectS.toSeq))
        PerLayer.put(ctx, "spark.jobs", med(_.jobs.toDouble))
        PerLayer.put(ctx, "spark.stages", med(_.stages.toDouble))
        PerLayer.put(ctx, "spark.tasks", med(_.tasks.toDouble))
        PerLayer.put(ctx, "spark.shuffle_write_records", med(_.shuffleWriteRecords.toDouble) / it)
        PerLayer.put(ctx, "spark.shuffle_write_bytes", med(_.shuffleWriteBytes.toDouble) / it)
        PerLayer.put(ctx, "spark.shuffle_read_records", med(_.shuffleReadRecords.toDouble) / it)
        PerLayer.put(ctx, "spark.shuffle_read_bytes", med(_.shuffleReadBytes.toDouble) / it)
        PerLayer.put(ctx, "spark.task_run_s", med(_.runS))
        PerLayer.put(ctx, "spark.task_cpu_s", med(_.cpuS))
        PerLayer.put(ctx, "spark.busy_ratio", med(_.runS) / (wall * 4))
        ops.putJvm(ctx)
      }
    } finally spark.stop()
  }

  // ------------------------------------------------------------- query-amazon

  /** Stored mean F1 of the first round of queries. */
  val queryRefs: Map[Long, Double] = Map(0L -> 0.9665289256198346, 1L -> 0.9284408773045137)

  /** The Table-6 query set, stratified: query i has 3 + i % 11 nodes and
    * scenario i % 4, so one round of 44 queries holds every size/scenario
    * pair once and the latency percentiles do not depend on which sizes a
    * seed happens to draw. Queries come from `Table6.makeQuery` on one
    * seeded stream; drawn queries of other sizes wait in a pool.
    */
  final class QueryStream(data: LocalGraph, seed: Long) {
    private val rnd = new Random(seed)
    private val pool = mutable.HashMap[(String, Int), mutable.Queue[(LocalGraph, Array[Int])]]()

    def apply(i: Int): (String, LocalGraph, Array[Int]) = {
      val scenario = Table6.scenarios(i % 4)
      val size = 3 + i % 11
      val q = pool.getOrElseUpdate((scenario, size), mutable.Queue())
      while (q.isEmpty) {
        val (query, truth) = Table6.makeQuery(data, scenario, rnd)
        pool.getOrElseUpdate((scenario, query.n), mutable.Queue()).enqueue((query, truth))
      }
      val (query, truth) = q.dequeue()
      (scenario, query, truth)
    }
  }

  val Round = 44

  private def queryAmazon(ctx: Ctx): Unit = {
    val nodes = if (ctx.opts.smoke) 300 else 6000 // Table 6's data graph
    val (data, setupS) = ctx.tracer.span("setup") {
      Time.repeated(SetupReps)(ctx.tracer.span("GraphGen.amazonLike")(GraphGen.amazonLike(nodes, 7L + ctx.opts.seed)))
    }
    val matcher = new FSimMatcher(Variant.S)
    // The configuration FSimMatcher(S) computes inside matchQuery.
    val cfg = FSimConfig(Variant.S, wPlus = 0.4, wMinus = 0.4, theta = 0.0)
    warmup(ctx) {
      val warm = new QueryStream(data, -1L - ctx.opts.seed)
      (0 until Round / 4).foreach(i => matcher.matchQuery(warm(i)._2, data))
    }

    val stream = new QueryStream(data, 99L + ctx.opts.seed)
    val ops = new OpSamples
    val f1s = mutable.ArrayBuffer[Double]()
    val fsimMs, expandMs, prepS, iterS, iters, pairs, cellRate = mutable.ArrayBuffer[Double]()
    var cellsMax = 0L
    val cellsSum = mutable.ArrayBuffer[Double]()
    var i = 0
    ctx.closedLoop(minOps = if (ctx.opts.smoke) Round / 4 else Round, round = Round / 4) { traced =>
      val (_, query, truth) = stream(i)
      i += 1
      ctx.op {
        val ((m, s), d) = JvmProbe.measure(Time(ctx.tracer.span("FSimMatcher.matchQuery") {
          matcher.matchQuery(query, data)
        }))
        ops.add(s, traced, d)
        // Traced: the query's FSimLocal.compute part again, timed on its own.
        val fsim = if (!ctx.opts.trace) None else {
          val (res, fs) = Time(ctx.tracer.span("FSimLocal.compute")(FSimLocal.compute(query, data, cfg)))
          val prep = Local.prepareSeconds(ctx, query, data, cfg)
          val (sum, max) = ctx.tracer.span("blockCells")(Local.blockCells(query, data, cfg, res))
          fsimMs += fs * 1000; expandMs += (s - fs) * 1000
          prepS += prep; iterS += (fs - prep) / math.max(1, res.iterations)
          iters += res.iterations; pairs += res.numPairs
          cellsSum += sum.toDouble; cellsMax = math.max(cellsMax, max)
          cellRate += sum * res.iterations / math.max(1e-9, fs - prep)
          Some(res)
        }
        (m, fsim)
      } { case (m, fsim) =>
        val f1 = Matcher.f1(truth, m)
        f1s += f1
        val used = m.values.toSeq
        (if (!(f1 >= 0.0 && f1 <= 1.0)) Seq(s"F1 $f1 outside [0, 1]") else Nil) ++
          (if (used.distinct.length != used.length) Seq("match is not injective") else Nil) ++
          (if (m.exists { case (q, v) => q < 0 || q >= query.n || v < 0 || v >= data.n })
            Seq("match outside the graphs") else Nil) ++
          fsim.toSeq.flatMap(Local.checkScores(_, None))
      }
    }
    val firstRound = f1s.take(Round)
    refFor(ctx, queryRefs).foreach { r =>
      val mean = firstRound.sum / firstRound.length
      ctx.checkReference(if (math.abs(mean - r) > 1e-6) Seq(f"mean F1 $mean%.9f, reference $r%.9f") else Nil)
    }
    ctx.shape("mean_f1_first_round") = firstRound.sum / firstRound.length

    if (!ctx.opts.trace) ops.putEndToEnd(ctx, setupS)
    else if (ops.seconds.nonEmpty) {
      putGraph(ctx, setupS, data)
      def med(xs: mutable.ArrayBuffer[Double]) = Time.median(xs.toSeq)
      PerLayer.put(ctx, "local.prepare_s", med(prepS))
      PerLayer.put(ctx, "local.iter_s", med(iterS))
      PerLayer.put(ctx, "local.iterations", med(iters))
      PerLayer.put(ctx, "local.pairs", med(pairs))
      PerLayer.put(ctx, "local.block_cells", med(cellsSum))
      PerLayer.put(ctx, "local.block_cells_max", cellsMax.toDouble)
      PerLayer.put(ctx, "local.cells_per_s", med(cellRate))
      PerLayer.put(ctx, "matching.fsim_ms", med(fsimMs))
      PerLayer.put(ctx, "matching.expand_ms", med(expandMs))
      PerLayer.put(ctx, "matching.f1", f1s.sum / f1s.length)
      ops.putJvm(ctx)
    }
  }
}
