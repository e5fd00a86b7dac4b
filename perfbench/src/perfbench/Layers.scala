package perfbench

import java.util.concurrent.{Callable, ForkJoinPool}
import repro.core.{FSimConfig, FSimLocal, FSimResult}
import repro.graph.LocalGraph
import scala.collection.mutable

/** Every per-layer metric with its unit, in the order they are printed. A
  * traced run prints all of them; a layer that is not on a workload's path
  * reads 0 there (see perfbench/README.md for which layer each workload
  * exercises).
  */
object PerLayer {
  val units: Seq[(String, String)] = Seq(
    "graph.gen_s" -> "s", "graph.frames_s" -> "s", "graph.nodes" -> "count",
    "graph.edges" -> "count",
    "local.prepare_s" -> "s", "local.iter_s" -> "s", "local.iterations" -> "count",
    "local.pairs" -> "count", "local.block_cells" -> "count",
    "local.block_cells_max" -> "count", "local.cells_per_s" -> "1/s",
    "local.iter_s.s" -> "s", "local.iter_s.dp" -> "s", "local.iter_s.b" -> "s",
    "local.iter_s.bj" -> "s", "local.threads1_s" -> "s", "local.speedup" -> "x",
    "ub.bound_s" -> "s", "ub.pruned_pairs" -> "count", "ub.prune_ratio" -> "ratio",
    "ub.net_s" -> "s",
    "spark.prepare_s" -> "s", "spark.iter_s" -> "s", "spark.collect_s" -> "s",
    "spark.jobs" -> "count", "spark.stages" -> "count", "spark.tasks" -> "count",
    "spark.shuffle_write_records" -> "count", "spark.shuffle_write_bytes" -> "B",
    "spark.shuffle_read_records" -> "count", "spark.shuffle_read_bytes" -> "B",
    "spark.task_run_s" -> "s", "spark.task_cpu_s" -> "s", "spark.busy_ratio" -> "ratio",
    "matching.fsim_ms" -> "ms", "matching.expand_ms" -> "ms", "matching.f1" -> "ratio",
    "jvm.alloc_mb" -> "MB", "jvm.gc_s" -> "s", "jvm.heap_peak_mb" -> "MB",
    "bench.warmup_s" -> "s", "trace.overhead_pct" -> "%")

  private val unitOf = units.toMap

  def put(ctx: Ctx, name: String, value: Double): Unit =
    ctx.put(name, value, unitOf.getOrElse(name, throw new IllegalArgumentException(name)))

  /** Fill the layers this workload does not exercise with 0, in list order. */
  def complete(ctx: Ctx): Unit = {
    val measured = ctx.metrics.clone()
    ctx.metrics.clear()
    units.foreach { case (n, u) => ctx.metrics(n) = measured.getOrElse(n, (0.0, u)) }
  }
}

/** The end-to-end metrics of a closed loop of ops, and the JVM and tracing
  * figures of the same ops.
  */
final class OpSamples {
  val seconds = mutable.ArrayBuffer[Double]()
  val traced = mutable.ArrayBuffer[Double]()
  val untraced = mutable.ArrayBuffer[Double]()
  val jvm = mutable.ArrayBuffer[JvmProbe.Delta]()

  def add(s: Double, wasTraced: Boolean, d: JvmProbe.Delta): Unit = {
    seconds += s
    (if (wasTraced) traced else untraced) += s
    jvm += d
  }

  /** `solve_s`, `query_p50_ms`, `query_tail_ms` (all from these ops) and
    * `setup_s`.
    */
  def putEndToEnd(ctx: Ctx, setupS: Double): Unit = {
    val (tail, label) = Time.tail(seconds.toSeq)
    ctx.put("solve_s", Time.median(seconds.toSeq), "s")
    ctx.put("query_p50_ms", Time.median(seconds.toSeq) * 1000, "ms")
    ctx.put("query_tail_ms", tail * 1000, "ms")
    ctx.put("setup_s", setupS, "s")
    ctx.shape("ops_timed") = seconds.length
    ctx.shape("op_seconds") = seconds.toSeq
    ctx.shape("query_tail_percentile") = label
  }

  def putJvm(ctx: Ctx): Unit = {
    PerLayer.put(ctx, "jvm.alloc_mb", Time.median(jvm.map(_.allocMb).toSeq))
    PerLayer.put(ctx, "jvm.gc_s", Time.median(jvm.map(_.gcS).toSeq))
    PerLayer.put(ctx, "jvm.heap_peak_mb", jvm.map(_.heapPeakMb).max)
    if (traced.nonEmpty && untraced.nonEmpty) {
      val u = Time.median(untraced.toSeq)
      PerLayer.put(ctx, "trace.overhead_pct", (Time.median(traced.toSeq) - u) / u * 100)
    }
  }
}

/** Helpers around the local engine, `repro.core.FSimLocal`. */
object Local {

  /** Time one solve: the call, its wall time and the JVM figures over it. */
  def solve(ctx: Ctx, g1: LocalGraph, g2: LocalGraph, cfg: FSimConfig)
      : (FSimResult, Double, JvmProbe.Delta) = {
    val ((res, s), d) = JvmProbe.measure(Time(ctx.tracer.span("FSimLocal.compute") {
      FSimLocal.compute(g1, g2, cfg)
    }))
    (res, s, d)
  }

  /** Label matrix, candidates, upper bounds and index only: a call that runs
    * no iteration.
    */
  def prepareSeconds(ctx: Ctx, g1: LocalGraph, g2: LocalGraph, cfg: FSimConfig): Double =
    Time(ctx.tracer.span("FSimLocal.compute(prepare)") {
      FSimLocal.compute(g1, g2, cfg.copy(exactIters = Some(0)))
    })._2

  /** Run `body` in a one-thread pool; parallel streams started from a pool
    * task run in that pool.
    */
  def onOneThread[A](body: => A): A = {
    val pool = new ForkJoinPool(1)
    try pool.submit(new Callable[A] { def call(): A = body }).get()
    finally pool.shutdown()
  }

  /** Σ and max over the maintained pairs (u, v) of the eligible neighbour
    * cells |{(x, y) : x ∈ N(u), y ∈ N(v), L(x, y) ≥ θ}|, per side (out, in).
    * Computed here from the graphs' adjacency, not read from the engine.
    */
  def blockCells(g1: LocalGraph, g2: LocalGraph, cfg: FSimConfig, res: FSimResult): (Long, Long) = {
    val sigma1 = g1.labels.distinct
    val sigma2 = g2.labels.distinct
    val id2 = sigma2.zipWithIndex.toMap
    val id1 = sigma1.zipWithIndex.toMap
    val l1 = g1.labels.map(id1)
    val l2 = g2.labels.map(id2)
    val ok = Array.tabulate(sigma1.length, sigma2.length)((a, b) =>
      cfg.labelSim.sim(sigma1(a), sigma2(b)) >= cfg.theta)
    def cells(s1: Array[Int], s2: Array[Int]): Long = {
      var c = 0L
      var i = 0
      while (i < s1.length) {
        val row = ok(l1(s1(i)))
        var j = 0
        while (j < s2.length) { if (row(l2(s2(j)))) c += 1; j += 1 }
        i += 1
      }
      c
    }
    var sum = 0L
    var max = 0L
    res.pairs.foreach { case (u, v, _) =>
      val o = cells(g1.outAdj(u), g2.outAdj(v))
      val n = cells(g1.inAdj(u), g2.inAdj(v))
      sum += o + n
      max = math.max(max, math.max(o, n))
    }
    (sum, max)
  }

  /** The local.* metrics of one workload from its median solve. */
  def putLayer(ctx: Ctx, g1: LocalGraph, g2: LocalGraph, cfg: FSimConfig, res: FSimResult,
               solveS: Double, prepareS: Double): Unit = {
    val (sum, max) = ctx.tracer.span("blockCells")(blockCells(g1, g2, cfg, res))
    val iterS = (solveS - prepareS) / math.max(1, res.iterations)
    PerLayer.put(ctx, "local.prepare_s", prepareS)
    PerLayer.put(ctx, "local.iter_s", iterS)
    PerLayer.put(ctx, "local.iterations", res.iterations)
    PerLayer.put(ctx, "local.pairs", res.numPairs)
    PerLayer.put(ctx, "local.block_cells", sum.toDouble)
    PerLayer.put(ctx, "local.block_cells_max", max.toDouble)
    PerLayer.put(ctx, "local.cells_per_s", sum / iterS)
  }

  /** |H|, iterations and Σscore, the values a [[Ref]] stores. */
  def summary(res: FSimResult): Map[String, Any] =
    Map("pairs" -> res.numPairs, "iterations" -> res.iterations, "sum" -> res.pairs.map(_._3).sum)

  /** Scores in [0, 1], and |H|, iterations and Σscore against a stored
    * reference when the seed has one.
    */
  def checkScores(res: FSimResult, ref: Option[Ref]): Seq[String] = {
    val bad = res.pairs.count { case (_, _, s) => !(s >= 0.0 && s <= 1.0) }
    val sum = res.pairs.map(_._3).sum
    (if (bad > 0) Seq(s"$bad scores outside [0, 1]") else Nil) ++
      ref.toSeq.flatMap(_.check(res.numPairs, res.iterations, sum))
  }
}

/** Stored reference values of one workload on one seed. */
final case class Ref(pairs: Int, iterations: Int, sum: Double) {
  def check(p: Int, it: Int, s: Double): Seq[String] =
    (if (p != pairs) Seq(s"|H| = $p, reference $pairs") else Nil) ++
      (if (it != iterations) Seq(s"iterations = $it, reference $iterations") else Nil) ++
      (if (math.abs(s - sum) > 1e-6) Seq(f"sum of scores = $s%.9f, reference $sum%.9f") else Nil)
}
