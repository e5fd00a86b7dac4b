package repro.core

import org.apache.spark.TaskContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.{GraphFrames, LocalGraph}

/** FSimχ on Spark: the same [[FSimPlan]] and fixpoint loop as [[FSimLocal]],
  * with each sweep distributed over the cluster.
  *
  * The plan is broadcast once. Its candidate pairs, sorted by u, are cut
  * into one contiguous block per `defaultParallelism` slot, by the plan's
  * cost-balanced [[FSimPlan.cuts]], so blocks hold near-equal neighbour
  * cells rather than equal pair counts. Each iteration broadcasts
  * FSim^{k-1} and runs one job, `runJob` with a named [[SweepTask]]: one
  * task per block runs [[FSimPlan.sweep]] over its range and returns that
  * slice of FSim^k with the slice's max |Δ|; the max |Δ| < ε test runs in
  * [[FSimPlan.converge]], outside the tasks.
  * Nothing is shuffled, so the scores equal FSimLocal's by construction and
  * do not depend on the shuffle partition count. The result is the
  * [[FSimResult]] that `converge` builds on the driver.
  */
object FSimSpark {

  /** FSimχ over the canonical node/edge frames of [[GraphFrames]], which
    * are collected and validated by [[GraphFrames.toLocal]]; once when both
    * sides are the same frames.
    */
  def compute(spark: SparkSession,
              nodes1: DataFrame, edges1: DataFrame,
              nodes2: DataFrame, edges2: DataFrame,
              cfg: FSimConfig): FSimResult = {
    val g1 = GraphFrames.toLocal(nodes1, edges1)
    val g2 = if ((nodes2 eq nodes1) && (edges2 eq edges1)) g1 else GraphFrames.toLocal(nodes2, edges2)
    compute(spark, g1, g2, cfg)
  }

  def compute(spark: SparkSession, g1: LocalGraph, g2: LocalGraph,
              cfg: FSimConfig): FSimResult = {
    val sc = spark.sparkContext
    val plan = new FSimPlan(g1, g2, cfg)
    val planB = sc.broadcast(plan)
    val nBlocks = sc.defaultParallelism
    val cuts = plan.cuts(nBlocks)
    val blocks = sc.parallelize(cuts.init.zip(cuts.tail).toSeq, nBlocks)
    val res = plan.converge { (prev, next) =>
      val prevB = sc.broadcast(prev)
      val delta = sc.runJob(blocks, new SweepTask(planB, prevB)).foldLeft(0.0) { case (max, (lo, slice, d)) =>
        System.arraycopy(slice, 0, next, lo, slice.length)
        math.max(max, d)
      }
      prevB.destroy()
      delta
    }
    planB.destroy()
    res
  }
}

/** Sweeps its block's (lo, hi) range into a fresh slice. A named class, not a
  * lambda, so that Spark's ClosureCleaner skips it on every job.
  */
private final class SweepTask(plan: Broadcast[FSimPlan], prev: Broadcast[Array[Double]])
    extends ((TaskContext, Iterator[(Int, Int)]) => (Int, Array[Double], Double)) with Serializable {
  def apply(ctx: TaskContext, block: Iterator[(Int, Int)]): (Int, Array[Double], Double) = {
    val (lo, hi) = block.next()
    val slice = new Array[Double](hi - lo)
    (lo, slice, plan.value.sweep(prev.value, slice, lo, hi, 0))
  }
}
