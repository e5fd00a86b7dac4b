package perfbench

import java.nio.file.Paths
import scala.collection.mutable

/** Options of one benchmark run.
  *
  * @param workload one of [[Workloads.names]]
  * @param seed     workload seed; 0 reproduces the paper-table graphs
  * @param seconds  how long the closed loop measures
  * @param trace    false: end-to-end metrics, spans off;
  *                 true: per-layer metrics, spans written out
  * @param smoke    tiny graphs and one op, to exercise the benchmark code only
  */
final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      smoke: Boolean)

object Opts {
  def parse(args: Array[String]): Opts = {
    def value(flag: String): Option[String] = {
      val i = args.indexOf(flag)
      if (i < 0) None
      else if (i + 1 < args.length) Some(args(i + 1))
      else throw new IllegalArgumentException(s"$flag needs a value")
    }
    val known = Set("--workload", "--seed", "--seconds", "--trace", "--smoke")
    args.filter(_.startsWith("--")).foreach { a =>
      require(known(a), s"unknown option $a")
    }
    val workload = value("--workload").getOrElse(
      throw new IllegalArgumentException("--workload is required"))
    require(Workloads.names.contains(workload),
      s"unknown workload $workload; one of ${Workloads.names.mkString(", ")}")
    val trace = value("--trace").getOrElse("0") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    val seconds = value("--seconds").getOrElse("10").toDouble
    require(seconds > 0, "--seconds must be positive")
    Opts(workload, value("--seed").getOrElse("0").toLong, seconds, trace, args.contains("--smoke"))
  }
}

/** What one run accumulates: op counts, failures and metrics. */
final class Ctx(val opts: Opts) {
  val tracer = new Tracer(opts.trace)
  val metrics = mutable.LinkedHashMap[String, (Double, String)]()
  val shape = mutable.LinkedHashMap[String, Any]()
  var attempted = 0L
  var failed = 0L
  private var reported = 0

  def put(name: String, value: Double, unit: String): Unit = {
    require(!metrics.contains(name), s"metric $name set twice")
    metrics(name) = (value, unit)
  }

  /** One op of the closed loop: counts it, and counts it failed if it throws
    * or any of its checks returns a message. Returns the op's value, if any.
    */
  def op[A](body: => A)(check: A => Seq[String]): Option[A] = {
    attempted += 1
    try {
      val a = body
      val problems = tracer.span("check")(check(a))
      if (problems.nonEmpty) fail(problems.mkString("; "))
      Some(a)
    } catch {
      case e: Exception => fail(e.toString); None
    }
  }

  /** Closed loop with one client: the next op starts when the previous one
    * returns. Runs at least `minOps` ops, then whole rounds of `round` ops
    * until `--seconds` have passed. With tracing on, every second op runs
    * with spans off, for the tracing-overhead figure.
    */
  def closedLoop(minOps: Int, round: Int = 1)(op: Boolean => Unit): Unit = {
    val t0 = System.nanoTime()
    var i = 0
    def more = !opts.smoke && (System.nanoTime() - t0) / 1e9 < opts.seconds
    while (i < minOps || i % round != 0 || more) {
      val traced = opts.trace && i % 2 == 0
      if (traced) tracer.span("op")(op(true)) else tracer.without(op(false))
      i += 1
    }
  }

  /** A check that is not tied to one op (on a reference solve, or on the
    * run's mean F1) counts as a failed op of its own.
    */
  def checkReference(problems: Seq[String]): Unit =
    if (problems.nonEmpty) { attempted += 1; fail(problems.mkString("; ")) }

  private def fail(msg: String): Unit = {
    failed += 1
    if (reported < 5) System.err.println(s"[perfbench] failed op: ${msg.take(2000)}")
    reported += 1
  }
}

object Time {
  def apply[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(p / 100.0 * s.length).toInt - 1))
  }

  /** The highest of the usual percentiles that has at least ten samples
    * beyond it, with its label. Below 20 samples no percentile qualifies and
    * the median stands in: the maximum of a few samples is mostly noise.
    */
  def tail(xs: Seq[Double]): (Double, String) =
    Seq(99.9, 99.0, 95.0, 90.0, 75.0)
      .find(p => xs.length - math.ceil(p / 100.0 * xs.length).toInt >= 10)
      .map(p => (percentile(xs, p), s"p${if (p == p.floor) p.toInt.toString else p.toString}"))
      .getOrElse((median(xs), s"p50 (${xs.length} samples)"))

  /** Repeat `body` `reps` times; the last value and the median time. */
  def repeated[A](reps: Int)(body: => A): (A, Double) = {
    val runs = (1 to reps).map(_ => apply(body))
    (runs.last._1, median(runs.map(_._2)))
  }
}

object Main {

  def main(args: Array[String]): Unit = {
    val code =
      try { run(Opts.parse(args)); 0 }
      catch {
        case e: Throwable =>
          System.err.println(s"[perfbench] run aborted: $e")
          e.printStackTrace()
          1
      }
    System.out.flush()
    sys.exit(code)
  }

  private def run(opts: Opts): Unit = {
    val ctx = new Ctx(opts)
    recordShape(ctx)
    ctx.tracer.span(s"workload:${opts.workload}") {
      Workloads.run(opts.workload, ctx)
    }
    println(s"shape ${Json.write(ctx.shape)}")
    if (opts.trace) {
      val path = Paths.get(".bench_build", "spans", s"${opts.workload}-seed${opts.seed}.json")
      ctx.tracer.write(path, Map("workload" -> opts.workload, "seed" -> opts.seed,
        "shape" -> ctx.shape))
      println(s"spans written to $path")
      ctx.tracer.selfSeconds.toSeq.sortBy(-_._2).take(12).foreach { case (n, t) =>
        println(f"self  $t%10.4f s  $n")
      }
    }
    val result = mutable.LinkedHashMap[String, Any](
      "correct" -> (ctx.failed == 0 && ctx.attempted > 0),
      "attempted" -> ctx.attempted,
      "failed" -> ctx.failed,
      "metrics" -> ctx.metrics.map { case (k, (v, u)) =>
        k -> mutable.LinkedHashMap("value" -> v, "unit" -> u)
      })
    println(Json.write(result))
  }

  private def recordShape(ctx: Ctx): Unit = {
    val rt = Runtime.getRuntime
    ctx.shape ++= Seq(
      "workload" -> ctx.opts.workload,
      "seed" -> ctx.opts.seed,
      "seconds" -> ctx.opts.seconds,
      "trace" -> ctx.opts.trace,
      "smoke" -> ctx.opts.smoke,
      "nproc" -> rt.availableProcessors(),
      "common_pool_parallelism" -> java.util.concurrent.ForkJoinPool.getCommonPoolParallelism,
      "heap_max_mb" -> rt.maxMemory() / 1048576,
      "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "gc" -> java.lang.management.ManagementFactory.getGarbageCollectorMXBeans
        .toArray.map(_.asInstanceOf[java.lang.management.GarbageCollectorMXBean].getName)
        .mkString("+"),
      "scala" -> scala.util.Properties.versionNumberString,
      "spark" -> org.apache.spark.SPARK_VERSION,
      "git_sha" -> sys.props.getOrElse("perfbench.gitSha", "unknown"),
      "source_sha256" -> sys.props.getOrElse("perfbench.sourceSha", "unknown"))
  }
}
