package repro.bench

import repro.SparkSpec

/** Base of the table benches. Before a JVM's first bench suite it starts the
  * shared SparkSession and runs one tiny Spark SQL query (a groupBy and a
  * join on a few rows), so Spark SQL's first-use cost lands in `beforeAll`
  * and not in the per-test seconds of whichever Spark table runs first.
  */
trait BenchSpec extends SparkSpec {
  override def beforeAll(): Unit = { super.beforeAll(); BenchSpec.warmUp }
}

object BenchSpec {
  private lazy val warmUp: Unit = {
    val spark = SparkSpec.shared
    import spark.implicits._
    val rows = Seq((1, "a"), (2, "b"), (3, "a")).toDF("id", "key")
    rows.join(rows.groupBy("key").count(), "key").collect()
  }
}
