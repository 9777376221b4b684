package repro.core

import repro.SparkSpec
import repro.baselines.{Aurum, D3L}

/** Column identity is the (database, table, column) triple, not its dotted
  * display name, and rankings break score ties on it.
  */
class ColumnIdSpec extends SparkSpec {

  private def table(db: String, name: String, values: Seq[String]): CorpusTable = {
    import spark.implicits._
    CorpusTable(db, name, values.toDF("c"))
  }

  private val companies = (0 until 200).map(i => s"company $i holdings")
  private val dates     = (0 until 200).map(i => f"2021-${i % 12 + 1}%02d-${i % 28 + 1}%02d")

  // Both display as "x.y.t.c".
  private val dotted   = ColumnId("x.y", "t", "c")
  private val shifted  = ColumnId("x", "y.t", "c")
  private val query    = ColumnId("z", "q", "c")

  private lazy val dottedCorpus = Corpus("dotted", Seq(
    table("x.y", "t", companies), table("x", "y.t", dates), table("z", "q", companies)))

  test("ids whose dotted names collide keep their own vectors") {
    val index = WarpGate.buildIndex(spark, dottedCorpus, WarpGateConfig())
    val model = index.config.model
    val own   = Map(dotted -> companies, shifted -> dates)
    own.foreach { case (id, values) =>
      val expect = ColumnEmbedder.embedValuesLocal(values, model)
      index.vectorOf(id).get.zip(expect).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9, id) }
    }
    val hits = index.lookup(index.vectorOf(query).get, query, 5).map(_.candidate)
    assert(hits == Seq(dotted), hits)
  }

  test("Aurum builds and links ids whose dotted names collide") {
    val index = Aurum.build(spark, dottedCorpus)
    assert(index.query(query, 5)._1.map(_.candidate) == Seq(dotted))
    assert(index.signatures(dotted).toSeq != index.signatures(shifted).toSeq)
  }

  test("D3L ranks both ids whose dotted names collide on their own profiles") {
    val res = D3L.build(spark, dottedCorpus).queryCached(query, 5)
    assert(res.map(_.candidate) == Seq(dotted, shifted), res)
    assert(res(0).score > res(1).score, res)
  }

  // Two identical candidates in different tables: every system must order
  // them the same way whatever order the corpus lists its tables in.
  private val twins = Seq(ColumnId("db", "t1", "c"), ColumnId("db", "t2", "c"))

  private def twinCorpus(reversed: Boolean): Corpus = {
    val tables = Seq(table("db", "q", companies), table("db", "t1", companies),
      table("db", "t2", companies))
    Corpus("twins", if (reversed) tables.reverse else tables)
  }

  test("score ties break on the column id, whatever the table order") {
    val q = ColumnId("db", "q", "c")
    def answers(c: Corpus): Seq[Seq[ColumnId]] = {
      val full    = WarpGate.buildIndex(spark, c, WarpGateConfig())
      val sampled = WarpGate.buildIndex(spark, c, WarpGateConfig(sampleSize = Some(50)))
      val aurum   = Aurum.build(spark, c)
      val d3l     = D3L.build(spark, c)
      Seq(
        full.lookup(full.vectorOf(q).get, q, 5),
        sampled.querySampled(q, 5)._1,
        aurum.query(q, 5)._1,
        d3l.queryCached(q, 5),
      ).map(_.map(_.candidate))
    }
    val forward  = answers(twinCorpus(reversed = false))
    val backward = answers(twinCorpus(reversed = true))
    assert(forward == backward)
    forward.foreach(a => assert(a == twins, a))
  }
}
