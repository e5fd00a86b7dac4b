package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Bridge between [[LocalGraph]] and Spark DataFrames. The frame overload
  * of [[repro.core.FSimSpark]] consumes the two canonical frames produced
  * here, and [[toLocal]] collects them back:
  *
  *  - nodes: (id LONG, label STRING)
  *  - edges: (src LONG, dst LONG)
  */
object GraphFrames {

  def nodesDF(spark: SparkSession, g: LocalGraph): DataFrame = {
    import spark.implicits._
    g.labels.zipWithIndex.map { case (l, i) => (i.toLong, l) }.toSeq.toDF("id", "label")
  }

  def edgesDF(spark: SparkSession, g: LocalGraph): DataFrame = {
    import spark.implicits._
    g.edges.map { case (u, v) => (u.toLong, v.toLong) }.toSeq.toDF("src", "dst")
  }

  /** Inverse of [[nodesDF]]/[[edgesDF]]: collects the two frames into a
    * [[LocalGraph]], validating them on the way. Node ids must be exactly
    * 0..n-1, each once, with non-null labels, and every edge endpoint must
    * be a node id; otherwise this throws IllegalArgumentException.
    * Duplicate edges are dropped and counted, as in [[LocalGraph.fromEdges]].
    */
  def toLocal(nodes: DataFrame, edges: DataFrame): LocalGraph = {
    val rows = nodes.select("id", "label").collect()
    val n = rows.length
    val labels = new Array[String](n)
    for (r <- rows) {
      require(!r.isNullAt(0) && r.getLong(0) >= 0 && r.getLong(0) < n &&
        labels(r.getLong(0).toInt) == null, s"node ids must be 0..${n - 1}, each once: got ${r.get(0)}")
      require(!r.isNullAt(1), s"node ${r.getLong(0)} has a null label")
      labels(r.getLong(0).toInt) = r.getString(1)
    }
    val es = edges.select("src", "dst").collect().map { r =>
      require(Seq(0, 1).forall(i => !r.isNullAt(i) && r.getLong(i) >= 0 && r.getLong(i) < n),
        s"edge (${r.get(0)}, ${r.get(1)}) has an endpoint outside the node ids 0..${n - 1}")
      (r.getLong(0).toInt, r.getLong(1).toInt)
    }
    LocalGraph.fromEdges(labels, es.toSeq)
  }
}
