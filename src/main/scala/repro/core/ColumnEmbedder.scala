package repro.core

import org.apache.spark.ml.linalg.{Vector, Vectors}
import org.apache.spark.ml.stat.Summarizer
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed column-embedding stage (§3.1.1).
  *
  * Input: melted values (database, table, column, value). Each cell is mapped
  * to its value vector by the embedding model (a deterministic UDF — the model
  * is closure-serialized to executors and keeps a per-executor token cache),
  * then per-column mean vectors are computed with Spark ML's `Summarizer`,
  * which does map-side partial aggregation so only one partial sum per column
  * per partition crosses the shuffle — not one vector per cell.
  *
  * Output schema: (database, table, column, nValues: Long, vec: ml.Vector).
  */
object ColumnEmbedder {

  def embedColumns(values: DataFrame, model: EmbeddingModel): DataFrame = {
    val embedUdf = udf { (v: String) => Vectors.dense(model.embedValue(v)) }
    values
      .withColumn("__vvec", embedUdf(col("value")))
      .groupBy("database", "table", "column")
      .agg(
        Summarizer.mean(col("__vvec")).as("vec"),
        count(lit(1)).as("nValues"),
      )
  }

  /** Driver-side embedding of a small value batch — the sampled query path
    * (§4.4), where shipping a Spark job per query would dwarf the work.
    */
  def embedValuesLocal(values: Iterable[String], model: EmbeddingModel): Array[Double] = {
    val acc = new Array[Double](model.dim)
    var n   = 0
    values.foreach { v => VectorOps.addInPlace(acc, model.embedValue(v)); n += 1 }
    if (n > 0) VectorOps.scaleInPlace(acc, 1.0 / n)
    acc
  }

  /** Mean vector of one column computed with a (timed) Spark scan — the
    * full-value query path whose load+inference cost Table 2 measures.
    */
  def embedColumnSpark(id: ColumnId, table: DataFrame, model: EmbeddingModel): Array[Double] = {
    val row = embedColumns(ColumnValues.meltColumn(id, table), model).select("vec").collect()
    if (row.isEmpty) new Array[Double](model.dim)
    else row(0).getAs[Vector]("vec").toArray
  }
}
