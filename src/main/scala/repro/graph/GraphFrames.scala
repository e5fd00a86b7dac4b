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

  /** Inverse of [[nodesDF]]/[[edgesDF]]: collects the two frames as given,
    * extra columns too (so a frame collected again reuses its cached plan),
    * reads `id`, `label`, `src` and `dst` by name and validates them into a
    * [[LocalGraph]]. A missing column, node ids other than 0..n-1 each once,
    * a null label or an edge endpoint that is not a node id throws
    * IllegalArgumentException. Duplicate edges are dropped and counted, as in
    * [[LocalGraph.fromEdges]].
    */
  def toLocal(nodes: DataFrame, edges: DataFrame): LocalGraph = {
    val Seq(id, label) = Seq("id", "label").map(nodes.schema.fieldIndex)
    val Seq(src, dst) = Seq("src", "dst").map(edges.schema.fieldIndex)
    val rows = nodes.collect()
    val n = rows.length
    val labels = new Array[String](n)
    for (r <- rows) {
      require(!r.isNullAt(id) && r.getLong(id) >= 0 && r.getLong(id) < n &&
        labels(r.getLong(id).toInt) == null, s"node ids must be 0..${n - 1}, each once: got ${r.get(id)}")
      require(!r.isNullAt(label), s"node ${r.getLong(id)} has a null label")
      labels(r.getLong(id).toInt) = r.getString(label)
    }
    val es = edges.collect().map { r =>
      require(Seq(src, dst).forall(i => !r.isNullAt(i) && r.getLong(i) >= 0 && r.getLong(i) < n),
        s"edge (${r.get(src)}, ${r.get(dst)}) has an endpoint outside the node ids 0..${n - 1}")
      (r.getLong(src).toInt, r.getLong(dst).toInt)
    }
    LocalGraph.fromEdges(labels, es.toSeq)
  }
}
