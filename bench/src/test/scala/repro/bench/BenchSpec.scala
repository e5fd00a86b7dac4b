package repro.bench

import repro.SparkSpec

/** Base of the table benches. Before a JVM's first bench suite it starts the
  * shared SparkSession and runs one tiny RDD job of 4 tasks, so Spark's
  * first-job cost lands in `beforeAll` and not in the per-test seconds of
  * whichever table runs `FSimSpark` first.
  */
trait BenchSpec extends SparkSpec {
  override def beforeAll(): Unit = { super.beforeAll(); BenchSpec.warmUp }
}

object BenchSpec {
  private lazy val warmUp: Unit = {
    SparkSpec.shared.sparkContext.parallelize(1 to 4, numSlices = 4).map(_ * 2).collect()
  }
}
