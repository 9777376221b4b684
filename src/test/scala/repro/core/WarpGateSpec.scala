package repro.core

import repro.SparkSpec
import repro.TestCorpora

class WarpGateSpec extends SparkSpec {

  private lazy val (corpus, spec) = TestCorpora.tiny(spark)
  private lazy val index = WarpGate.buildIndex(spark, corpus, WarpGateConfig())
  private lazy val sampledIndex =
    WarpGate.buildIndex(spark, corpus, WarpGateConfig(sampleSize = Some(50)))

  private val qCompany = ColumnId("dbA", "accounts", "company")
  private val qCode    = ColumnId("dbA", "leads", "ref_code")

  test("index holds one embedding per corpus column") {
    assert(index.columns.length == spec.tables.map(_.columns.size).sum)
    assert(index.vectors.length == index.columns.length)
  }

  test("index vectors have the model dimension") {
    assert(index.vectors.forall(_.length == index.config.model.dim))
  }

  test("vectorOf finds known columns and misses unknown ones") {
    assert(index.vectorOf(qCompany).isDefined)
    assert(index.vectorOf(ColumnId("x", "y", "z")).isEmpty)
  }

  test("lookup finds the cluster columns for a company query") {
    val vec = index.vectorOf(qCompany).get
    val res = index.lookup(vec, qCompany, k = 5)
    val keys = res.map(_.candidate.key)
    assert(keys.contains("dbA.leads.firm"), keys)
    assert(keys.contains("dbB.orgs.organization"), keys)
  }

  test("lookup finds the code cluster for a code query") {
    val vec = index.vectorOf(qCode).get
    val res = index.lookup(vec, qCode, k = 5)
    assert(res.map(_.candidate.key).contains("dbB.refs.code"))
  }

  test("lookup never returns the query column or its own table") {
    val vec = index.vectorOf(qCompany).get
    val res = index.lookup(vec, qCompany, k = 10)
    assert(res.forall(r => !(r.candidate.database == "dbA" && r.candidate.table == "accounts")))
  }

  test("lookup respects the similarity threshold") {
    val vec = index.vectorOf(qCompany).get
    index.lookup(vec, qCompany, k = 10).foreach(r => assert(r.score >= 0.7))
  }

  test("lookup results are sorted by descending score") {
    val vec    = index.vectorOf(qCompany).get
    val scores = index.lookup(vec, qCompany, k = 10).map(_.score)
    assert(scores == scores.sorted.reverse)
  }

  test("lookup caps results at k") {
    val vec = index.vectorOf(qCompany).get
    assert(index.lookup(vec, qCompany, k = 1).size <= 1)
  }

  test("sameDatabaseOnly restricts the candidate scope") {
    val vec = index.vectorOf(qCompany).get
    val res = index.lookup(vec, qCompany, k = 10, sameDatabaseOnly = true)
    assert(res.nonEmpty)
    assert(res.forall(_.candidate.database == "dbA"))
  }

  test("queryFull reports phase timings and finds the cluster") {
    val (res, t) = index.queryFull(corpus, qCompany, k = 5)
    assert(res.map(_.candidate.key).contains("dbA.leads.firm"))
    assert(t.loadEmbedMs > 0 && t.lookupMs >= 0)
    assert(t.totalMs >= t.loadEmbedMs)
  }

  test("querySampled requires a sampled index") {
    intercept[IllegalStateException](index.querySampled(qCompany, 3))
  }

  test("querySampled answers from the driver-side sample cache") {
    val (res, t) = sampledIndex.querySampled(qCompany, 5)
    assert(res.map(_.candidate.key).contains("dbA.leads.firm"))
    assert(t.totalMs < 1000.0) // no Spark job on this path
  }

  test("sampled index caches one sample per column") {
    assert(sampledIndex.samples.length == index.columns.length)
    assert(sampledIndex.samples.forall(_.length <= 50))
  }

  test("sampled index effectiveness matches full index on the tiny corpus") {
    val vecF = index.vectorOf(qCompany).get
    val vecS = sampledIndex.vectorOf(qCompany).get
    val full    = index.lookup(vecF, qCompany, 3).map(_.candidate.key).toSet
    val sampled = sampledIndex.lookup(vecS, qCompany, 3).map(_.candidate.key).toSet
    assert(full == sampled)
  }

  test("a higher threshold prunes more candidates") {
    val strict = WarpGate.buildIndex(spark, corpus,
      WarpGateConfig(threshold = 0.95))
    val vec = strict.vectorOf(qCompany).get
    val loose  = index.lookup(index.vectorOf(qCompany).get, qCompany, 10)
    val tight  = strict.lookup(vec, qCompany, 10)
    assert(tight.size <= loose.size)
  }

  test("columns are sorted by (database, table, column) in both build modes") {
    Seq(index, sampledIndex).foreach { ix =>
      assert(ix.columns.toSeq == ix.columns.toSeq.sorted)
    }
  }

  test("sampled index vectors are the embedding of each column's stored sample") {
    // querySampled embeds exactly the stored sample, so for every column its
    // query vector must be the index vector bit for bit, and the answers the
    // same as a lookup with the stored vector.
    sampledIndex.columns.zipWithIndex.foreach { case (c, i) =>
      val queried = ColumnEmbedder.embedValuesLocal(sampledIndex.samples(i), sampledIndex.config.model)
      assert(queried.sameElements(sampledIndex.vectors(i)), c)
      assert(sampledIndex.querySampled(c, 5)._1 == sampledIndex.lookup(sampledIndex.vectors(i), c, 5))
    }
  }
}
