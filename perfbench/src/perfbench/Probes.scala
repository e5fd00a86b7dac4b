package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.jdk.CollectionConverters._

/** Process-level JVM measurements taken from outside the engines. They are
  * not in-engine traces: allocation is summed over the threads alive at each
  * reading (a thread that ends between two readings loses its share), and
  * the heap peak is the sum of the peaks of the heap pools other than eden
  * (survivor and old: what outlives a young collection, including large
  * arrays, which G1 places in old regions directly). Eden is left out
  * because it fills to its sizing before every young collection.
  */
object JvmProbe {

  final case class Reading(allocBytes: Long, gcMs: Long)
  final case class Delta(allocMb: Double, gcS: Double, heapPeakMb: Double)

  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(p => p.getType == MemoryType.HEAP && !p.getName.contains("Eden")).toSeq
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  def read(): Reading = {
    val alloc = threads.getThreadAllocatedBytes(threads.getAllThreadIds).iterator.filter(_ > 0).sum
    Reading(alloc, gcs.iterator.map(_.getCollectionTime.max(0L)).sum)
  }

  /** Run `body`, with the pool peaks reset first; return its value and the
    * allocation, GC time and heap peak seen over it.
    */
  def measure[A](body: => A): (A, Delta) = {
    heapPools.foreach(_.resetPeakUsage())
    val r0 = read()
    val a = body
    val r1 = read()
    val peak = heapPools.iterator.map(_.getPeakUsage.getUsed).sum
    (a, Delta((r1.allocBytes - r0.allocBytes) / 1048576.0, (r1.gcMs - r0.gcMs) / 1000.0,
      peak / 1048576.0))
  }
}

/** Sums of Spark task metrics over an interval, from a [[SparkListener]]. */
final case class SparkSums(jobs: Long, stages: Long, tasks: Long, runS: Double, cpuS: Double,
                           shuffleWriteRecords: Long, shuffleWriteBytes: Long,
                           shuffleReadRecords: Long, shuffleReadBytes: Long) {
  def -(o: SparkSums): SparkSums = SparkSums(jobs - o.jobs, stages - o.stages, tasks - o.tasks,
    runS - o.runS, cpuS - o.cpuS, shuffleWriteRecords - o.shuffleWriteRecords,
    shuffleWriteBytes - o.shuffleWriteBytes, shuffleReadRecords - o.shuffleReadRecords,
    shuffleReadBytes - o.shuffleReadBytes)
}

/** A listener that sums every finished job, stage and task of the session.
  * Events arrive asynchronously, so `snapshot` first drains the listener bus.
  */
final class SparkProbe(sc: SparkContext) extends SparkListener {
  private val jobs, stages, tasks, runMs, cpuNs, swRec, swBytes, srRec, srBytes = new AtomicLong()
  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages.incrementAndGet()
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    val m = e.taskMetrics
    if (m != null) {
      runMs.addAndGet(m.executorRunTime)
      cpuNs.addAndGet(m.executorCpuTime)
      swRec.addAndGet(m.shuffleWriteMetrics.recordsWritten)
      swBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      srRec.addAndGet(m.shuffleReadMetrics.recordsRead)
      srBytes.addAndGet(m.shuffleReadMetrics.totalBytesRead)
    }
  }

  def snapshot(): SparkSums = {
    org.apache.spark.ListenerBusDrain(sc)
    SparkSums(jobs.get, stages.get, tasks.get, runMs.get / 1000.0, cpuNs.get / 1e9,
      swRec.get, swBytes.get, srRec.get, srBytes.get)
  }
}
