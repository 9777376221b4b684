package repro.core

import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.{Row, SparkSession}
import scala.collection.mutable

/** WarpGate configuration.
  *
  * @param threshold  minimum cosine similarity for a candidate (paper: 0.7)
  * @param sampleSize rows read per table when building the index; None = full
  *                   scan (§3.1.3 studies 10/100/1000 vs full)
  */
final case class WarpGateConfig(
    model: EmbeddingModel = new WebTableEmbeddingModel(),
    lsh: LshConfig = LshConfig(),
    threshold: Double = 0.7,
    sampleSize: Option[Int] = None,
)

/** Phase timings of one discovery query, in milliseconds. End-to-end response
  * time = loadEmbedMs (data loading + embedding inference) + lookupMs (LSH
  * probe + exact re-rank) — the decomposition Table 2 reports.
  */
final case class QueryTiming(loadEmbedMs: Double, lookupMs: Double) {
  def totalMs: Double = loadEmbedMs + lookupMs
}

/** The built index: one mean embedding per column, held on the driver with
  * its SimHash buckets — the in-memory LSH index the paper's system probes
  * for interactive lookups.
  *
  * `columns` is sorted by (database, table, column), so a column's position
  * is a stable id: `vectors` and `samples` are aligned with it, and ties in
  * [[lookup]] break on it.
  */
final class WarpGateIndex(
    val config: WarpGateConfig,
    val lsh: SimHashLsh,
    val columns: Array[ColumnId],
    val vectors: Array[Array[Double]],
    /** per-column values each vector was embedded from; empty unless
      * config.sampleSize is set
      */
    val samples: Array[Array[String]],
) extends Serializable {

  /** bucket key (band, hash) -> column positions */
  private val buckets: mutable.LongMap[mutable.ArrayBuffer[Int]] = {
    val m = new mutable.LongMap[mutable.ArrayBuffer[Int]]()
    var i = 0
    while (i < columns.length) {
      val hashes = lsh.bandHashes(vectors(i))
      var b = 0
      while (b < hashes.length) {
        m.getOrElseUpdate((b.toLong << 32) | (hashes(b).toLong & 0xffffffffL),
          new mutable.ArrayBuffer[Int]) += i
        b += 1
      }
      i += 1
    }
    m
  }

  private val positionOf: Map[ColumnId, Int] = columns.iterator.zipWithIndex.toMap

  def vectorOf(id: ColumnId): Option[Array[Double]] = positionOf.get(id).map(vectors)

  /** In-memory LSH probe + exact cosine re-rank (the "index lookup" of
    * Table 2). Candidates sharing at least one band bucket with the query are
    * verified with exact cosine; candidates below the threshold, the query
    * column itself, and columns of the query's own table are dropped; top-k
    * by (similarity desc, column position) is returned.
    */
  def lookup(queryVec: Array[Double], query: ColumnId, k: Int,
             sameDatabaseOnly: Boolean = false): Seq[SearchResult] = {
    val hashes = lsh.bandHashes(queryVec)
    val seen   = new java.util.BitSet(columns.length)
    val hits   = new mutable.ArrayBuffer[(Int, Double)]()
    var b = 0
    while (b < hashes.length) {
      buckets.get((b.toLong << 32) | (hashes(b).toLong & 0xffffffffL)).foreach { ids =>
        ids.foreach { i =>
          if (!seen.get(i)) {
            seen.set(i)
            val c = columns(i)
            val inScope = !(c.database == query.database && c.table == query.table) &&
              (!sameDatabaseOnly || c.database == query.database)
            if (inScope) {
              val s = VectorOps.cosine(queryVec, vectors(i))
              if (s >= config.threshold) hits += ((i, s))
            }
          }
        }
      }
      b += 1
    }
    hits.sortBy { case (i, s) => (-s, i) }.take(k)
      .map { case (i, s) => SearchResult(query, columns(i), s) }.toSeq
  }

  /** Full-value query path (Table 2): scan the query column with Spark, embed,
    * then probe the in-memory index. Returns results plus phase timings.
    */
  def queryFull(corpus: Corpus, query: ColumnId, k: Int,
                sameDatabaseOnly: Boolean = false): (Seq[SearchResult], QueryTiming) = {
    val t0  = System.nanoTime()
    val df  = corpus.table(query.database, query.table).df
    val vec = ColumnEmbedder.embedColumnSpark(query, df, config.model)
    val t1  = System.nanoTime()
    val res = lookup(vec, query, k, sameDatabaseOnly)
    val t2  = System.nanoTime()
    (res, QueryTiming((t1 - t0) / 1e6, (t2 - t1) / 1e6))
  }

  /** Sampled query path (§4.4): embed the column's stored sample on the
    * driver (standing in for a `LIMIT n` the warehouse answers in
    * milliseconds), then probe. Orders of magnitude cheaper than
    * [[queryFull]].
    */
  def querySampled(query: ColumnId, k: Int,
                   sameDatabaseOnly: Boolean = false): (Seq[SearchResult], QueryTiming) = {
    val sample = positionOf.get(query).filter(_ < samples.length).map(samples).getOrElse(
      throw new IllegalStateException(s"no sample stored for ${query.key}; build with sampleSize"))
    val t0  = System.nanoTime()
    val vec = ColumnEmbedder.embedValuesLocal(sample, config.model)
    val t1  = System.nanoTime()
    val res = lookup(vec, query, k, sameDatabaseOnly)
    val t2  = System.nanoTime()
    (res, QueryTiming((t1 - t0) / 1e6, (t2 - t1) / 1e6))
  }
}

/** Index construction (the "indexing pipeline" of Figure 2). */
object WarpGate {

  /** Build the index over a corpus.
    *
    * Full mode: melt every cell -> embed -> per-column Spark mean, one collect.
    * Sampled mode (§3.1.3): one collect of at most `sampleSize` rows per
    * table; each column's vector is the driver-side mean of exactly the
    * values stored as its query sample.
    */
  def buildIndex(spark: SparkSession, corpus: Corpus, config: WarpGateConfig): WarpGateIndex = {
    val lsh = new SimHashLsh(config.model.dim, config.lsh)
    def idOf(r: Row) = ColumnId(r.getString(0), r.getString(1), r.getString(2))
    config.sampleSize match {
      case None =>
        val rows = ColumnEmbedder.embedColumns(corpus.meltAll(None), config.model)
          .select("database", "table", "column", "vec").collect()
          .map(r => idOf(r) -> r.getAs[Vector](3).toArray)
          .sortBy(_._1)
        new WarpGateIndex(config, lsh, rows.map(_._1), rows.map(_._2), Array.empty)
      case Some(n) =>
        val byColumn = corpus.meltAll(Some(n)).collect()
          .groupBy(idOf).toArray
          .sortBy(_._1)
        val samples = byColumn.map(_._2.map(_.getString(3)))
        new WarpGateIndex(config, lsh, byColumn.map(_._1),
          samples.map(ColumnEmbedder.embedValuesLocal(_, config.model)), samples)
    }
  }
}
