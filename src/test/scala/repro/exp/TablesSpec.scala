package repro.exp

import repro.SparkSpec
import repro.graph.RdfVersions
import scala.io.{Codec, Source}
import scala.util.Using

/** Every printed table, pinned: each bench driver runs once, and what its `render` prints must
  * equal the file under `src/test/resources/tables/` recorded from `sbt bench/test`. The bench
  * suites assert the tables' shapes; this spec catches a moved number that keeps the shape.
  * The output is stable: scores do not depend on thread or partition count, and the renders
  * print 1–3 decimals.
  */
class TablesSpec extends SparkSpec {

  private def pinned(name: String): String =
    Using.resource(Source.fromResource(s"tables/$name.txt")(Codec.UTF8))(_.mkString)

  private def check(name: String, printed: String): Unit =
    assert(printed === pinned(name), s"tables/$name.txt")

  test("Table 2 prints as pinned") { check("table2", Table2.render(Table2.compute())) }

  test("Table 4 prints as pinned") { check("table4", Table4.render(Table4.compute())) }

  test("Table 5 prints as pinned") { check("table5", Table5.render(Table5.compute())) }

  test("Table 6 prints as pinned") { check("table6", Table6.render(Table6.compute())) }

  test("Tables 7 and 8 print as pinned") {
    val computed = Table78.compute(spark)
    check("table7", Table78.renderTable7(Table78.table7(computed)))
    check("table8", Table78.renderTable8(Table78.table8(computed)))
  }

  test("Table 9 prints as pinned") { check("table9", Table9.render(Table9.compute())) }

  test("Table 9's footnote prints as pinned") {
    val vs = RdfVersions.generate(n3 = 600)
    check("table9-footnote", Table9Footnote.render(Table9Footnote.exactBisimF1(vs.g1, vs.g2)))
  }
}
