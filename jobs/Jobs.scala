package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** spark-submit entrypoints, one per reproduced table. Each prints the
  * paper-vs-measured table to stdout. Only Tables 7 and 8 start a session:
  * their FSim_bj runs on [[repro.core.FSimSpark]]. The others compute
  * locally. Example:
  *
  *   spark-submit --class repro.jobs.Table7Job target/scala-2.13/repro_2.13-*.jar
  */
object Jobs {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .getOrCreate()

  def run(name: String)(body: SparkSession => String): Unit = {
    val spark = session(name)
    try println(body(spark))
    finally spark.stop()
  }
}

object Table2Job { def main(args: Array[String]): Unit = println(Table2.render(Table2.compute())) }
object Table4Job { def main(args: Array[String]): Unit = println(Table4.render(Table4.compute())) }
object Table5Job { def main(args: Array[String]): Unit = println(Table5.render(Table5.compute())) }
object Table6Job { def main(args: Array[String]): Unit = println(Table6.render(Table6.compute())) }
object Table7Job {
  def main(args: Array[String]): Unit = Jobs.run("table7") { spark =>
    Table78.renderTable7(Table78.table7(Table78.compute(spark)))
  }
}
object Table8Job {
  def main(args: Array[String]): Unit = Jobs.run("table8") { spark =>
    Table78.renderTable8(Table78.table8(Table78.compute(spark)))
  }
}
object Table9Job { def main(args: Array[String]): Unit = println(Table9.render(Table9.compute())) }
