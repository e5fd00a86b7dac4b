package repro.graph

import repro.{Oracle, SparkSpec, TestGraphs}
import repro.exp.Table4

class GraphFramesSpec extends SparkSpec {

  // Named after GraphFrames.statsDF, the Spark frame Table4.row replaced.
  for (seed <- 1 to 4) {
    test(s"statsDF matches DuckDB oracle, seed $seed") {
      import spark.implicits._
      val g = TestGraphs.uniform(30, 80, 4, seed)
      val nodes = GraphFrames.nodesDF(spark, g)
      val edges = GraphFrames.edgesDF(spark, g)
      val r = Table4.row(s"seed $seed", g)
      Oracle.assertEquivalent(
        Seq((r.e, r.v, r.sigma, r.d, r.dOut, r.dIn)).toDF(
          "num_edges", "num_nodes", "num_labels", "avg_degree", "max_outdeg", "max_indeg"),
        """
        SELECT
          (SELECT count(*) FROM edges)                    AS num_edges,
          (SELECT count(*) FROM nodes)                    AS num_nodes,
          (SELECT count(DISTINCT label) FROM nodes)       AS num_labels,
          round((SELECT count(*) FROM edges) * 1.0
                / (SELECT count(*) FROM nodes), 2)        AS avg_degree,
          (SELECT coalesce(max(c), 0) FROM
             (SELECT count(*) c FROM edges GROUP BY src)) AS max_outdeg,
          (SELECT coalesce(max(c), 0) FROM
             (SELECT count(*) c FROM edges GROUP BY dst)) AS max_indeg
        """,
        "nodes" -> nodes, "edges" -> edges)
    }
  }

  test("nodes/edges round-trip preserves the graph") {
    val g = TestGraphs.uniform(25, 60, 3, 10)
    val nodes = GraphFrames.nodesDF(spark, g).collect()
      .map(r => r.getLong(0).toInt -> r.getString(1)).toMap
    val edges = GraphFrames.edgesDF(spark, g).collect()
      .map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet
    assert(nodes === (0 until g.n).map(i => i -> g.labels(i)).toMap)
    assert(edges === g.edges.toSet)
    val back = GraphFrames.toLocal(GraphFrames.nodesDF(spark, g), GraphFrames.edgesDF(spark, g))
    assert(back.labels.toSeq === g.labels.toSeq)
    assert(back.edges.toSeq === g.edges.toSeq)
  }

  test("toLocal reads columns by name: reordered and extra columns give the same graph") {
    import org.apache.spark.sql.functions.lit
    val g = TestGraphs.uniform(25, 60, 3, 12)
    val nodes = GraphFrames.nodesDF(spark, g)
    val edges = GraphFrames.edgesDF(spark, g)
    val canonical = GraphFrames.toLocal(nodes, edges)
    val shuffled = GraphFrames.toLocal(
      nodes.select(nodes("label"), nodes("id"), lit("x").as("extra")),
      edges.select(edges("dst"), edges("src"), lit(1.5).as("weight")))
    assert(shuffled.labels.toSeq === canonical.labels.toSeq)
    assert(shuffled.edges.toSeq === canonical.edges.toSeq)
  }

  test("toLocal rejects a node frame without id and an edge frame without dst") {
    import spark.implicits._
    val nodes = Seq(0L -> "a", 1L -> "b").toDF("id", "label")
    val edges = Seq(0L -> 1L).toDF("src", "dst")
    intercept[IllegalArgumentException](GraphFrames.toLocal(nodes.withColumnRenamed("id", "node"), edges))
    intercept[IllegalArgumentException](GraphFrames.toLocal(nodes, edges.drop("dst")))
  }

  private def toLocal(nodes: Seq[(Long, String)], edges: Seq[(Long, Long)]) = {
    import spark.implicits._
    GraphFrames.toLocal(nodes.toDF("id", "label"), edges.toDF("src", "dst"))
  }

  test("toLocal rejects node ids that are not 0..n-1") {
    intercept[IllegalArgumentException](toLocal(Seq(0L -> "a", 2L -> "b"), Nil))
  }

  test("toLocal rejects a node id given twice") {
    intercept[IllegalArgumentException](toLocal(Seq(0L -> "a", 0L -> "b"), Nil))
  }

  test("toLocal rejects a null label") {
    intercept[IllegalArgumentException](toLocal(Seq(0L -> "a", 1L -> null), Nil))
  }

  test("toLocal rejects an edge endpoint outside the node ids") {
    intercept[IllegalArgumentException](toLocal(Seq(0L -> "a", 1L -> "b"), Seq(0L -> 2L)))
    intercept[IllegalArgumentException](toLocal(Seq(0L -> "a", 1L -> "b"), Seq(-1L -> 0L)))
  }

  test("degree histogram matches DuckDB oracle") {
    val g = TestGraphs.uniform(30, 90, 2, 11)
    val edges = GraphFrames.edgesDF(spark, g)
    val df = edges.groupBy("src").agg(org.apache.spark.sql.functions.count(
        org.apache.spark.sql.functions.lit(1)).as("outdeg"))
      .groupBy("outdeg").agg(org.apache.spark.sql.functions.count(
        org.apache.spark.sql.functions.lit(1)).as("freq"))
    Oracle.assertEquivalent(df,
      "SELECT outdeg, count(*) AS freq FROM " +
        "(SELECT src, count(*) AS outdeg FROM edges GROUP BY src) AS t GROUP BY outdeg",
      "edges" -> edges)
  }
}
