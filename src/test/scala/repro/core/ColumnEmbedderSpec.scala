package repro.core

import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.functions._
import repro.SparkSpec

class ColumnEmbedderSpec extends SparkSpec {

  private val model = new WebTableEmbeddingModel()

  private lazy val (corpus, spec) = repro.TestCorpora.tiny(spark)

  test("embedColumns yields one row per column") {
    val emb = ColumnEmbedder.embedColumns(corpus.meltAll(None), model)
    assert(emb.count() == spec.tables.map(_.columns.size).sum)
  }

  test("embedColumns counts values per column") {
    val emb = ColumnEmbedder.embedColumns(corpus.meltAll(None), model)
    val n = emb.filter(col("table") === "accounts" && col("column") === "company")
      .select("nValues").collect()(0).getLong(0)
    assert(n == 400L)
  }

  test("embedColumns vectors have the model dimension") {
    val emb = ColumnEmbedder.embedColumns(corpus.meltAll(None), model)
    val v = emb.select("vec").collect()(0).getAs[Vector]("vec")
    assert(v.size == model.dim)
  }

  test("distributed mean equals driver-side mean of the same values") {
    val id     = ColumnId("dbA", "leads", "firm")
    val table  = corpus.table("dbA", "leads").df
    val sparkVec = ColumnEmbedder.embedColumnSpark(id, table, model)
    val values = table.select(col("firm").cast("string")).collect().map(_.getString(0))
    val local  = ColumnEmbedder.embedValuesLocal(values.toSeq, model)
    assert(VectorOps.cosine(sparkVec, local) > 0.999999)
    sparkVec.zip(local).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9) }
  }

  test("columns of overlapping intervals embed close, cross-domain far") {
    val emb = ColumnEmbedder.embedColumns(corpus.meltAll(None), model)
      .collect()
      .map(r => (r.getString(1), r.getString(2)) -> r.getAs[Vector]("vec").toArray)
      .toMap
    val company = emb(("accounts", "company"))
    val firm    = emb(("leads", "firm"))
    val org     = emb(("orgs", "organization"))
    val date    = emb(("accounts", "created_at"))
    assert(VectorOps.cosine(company, firm) > 0.7)
    assert(VectorOps.cosine(company, org) > 0.7)
    assert(VectorOps.cosine(company, date) < 0.5)
  }

  test("sampled embeddings stay close to full embeddings (robustness)") {
    val id    = ColumnId("dbA", "accounts", "company")
    val table = corpus.table("dbA", "accounts").df
    val full    = ColumnEmbedder.embedColumnSpark(id, table, model)
    val sample  = ColumnValues.meltColumn(id, table, Some(100)).select("value")
      .collect().map(_.getString(0))
    assert(sample.length == 100)
    val sampled = ColumnEmbedder.embedValuesLocal(sample, model)
    assert(VectorOps.cosine(full, sampled) > 0.9)
  }
}
