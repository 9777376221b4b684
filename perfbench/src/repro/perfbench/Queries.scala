package repro.perfbench

import repro.core._
import repro.corpus.EvalCorpus
import repro.eval.Metrics

/** The query side of a workload over one built index: the end-to-end query,
  * its traced layer replays, and the answer checks.
  */
final class Queries(ec: EvalCorpus, index: WarpGateIndex) {
  import PerfBench.K
  import Queries._

  private val model     = index.config.model
  private val tau       = index.config.threshold
  private val sampleRows = index.config.sampleSize
  private val sameDb    = ec.sameDatabaseOnly
  private val columns   = index.columns
  private val vectors   = index.vectors
  /** Band hashes of every indexed column, for the LSH audit. */
  private lazy val bands = vectors.map(index.lsh.bandHashes)

  private def inScope(q: ColumnId, c: ColumnId): Boolean =
    !(c.database == q.database && c.table == q.table) && (!sameDb || c.database == q.database)

  /** Read the query column out of storage: every value in full-value mode,
    * a `LIMIT n` of the table in sampled mode.
    */
  def fetch(q: ColumnId): Array[String] =
    ColumnValues.meltColumn(q, ec.corpus.table(q.database, q.table).df, sampleRows)
      .select("value").collect().map(_.getString(0))

  /** One end-to-end query: from the storage read to the ranked top-k. The
    * full-value path is [[WarpGateIndex.queryFull]] (Table 2); the sampled
    * path fetches `LIMIT n` rows, embeds them on the driver and probes (§4.4).
    */
  def answer(q: ColumnId): Seq[SearchResult] = sampleRows match {
    case None    => index.queryFull(ec.corpus, q, K, sameDb)._1
    case Some(_) => index.lookup(ColumnEmbedder.embedValuesLocal(fetch(q), model), q, K, sameDb)
  }

  /** Replay the layers of one answered query on the same values, each in its
    * own span, and audit the LSH probe against an exact scan.
    */
  def traceQuery(trace: Trace, op: Int, q: ColumnId, opStartNs: Long, opEndNs: Long,
                 res: Seq[SearchResult]): Map[String, Double] = {
    def span[A](name: String)(body: => A) = trace.span(op, name, "query")(body)
    val opMs = trace.record(op, "query", "", opStartNs, opEndNs)

    val (values, fetchMs) = span("fetch")(fetch(q))
    val (local, localMs)  = span("column_mean.driver")(ColumnEmbedder.embedValuesLocal(values, model))
    val (vec, meanMs) = sampleRows match {
      case None => span("column_mean")(ColumnEmbedder.embedColumnSpark(q,
        ec.corpus.table(q.database, q.table).df, model))
      case Some(_) => (local, localMs)
    }
    val (qBands, hashMs) = span("lsh_hash")(index.lsh.bandHashes(vec))
    val (lsh, lookupMs)  = span("lookup")(index.lookup(vec, q, K, sameDb))
    val (exact, exactMs) = span("exact_scan")(exactScan(q, vec))

    // Every column sharing a band bucket with the query is a candidate the
    // probe touches; in-scope ones at or above tau are the useful ones.
    val candidates = bands.indices.filter(i => sharesBand(bands(i), qBands))
    val aboveTau = candidates.iterator
      .filter(i => inScope(q, columns(i)))
      .map(i => i -> VectorOps.cosine(vec, vectors(i)))
      .filter(_._2 >= tau).toSeq
    // The probe must return exactly the best of its own candidates.
    val expected = aboveTau.map(_._2).sorted(Ordering[Double].reverse).take(K)
    val mismatch = lsh.map(_.score) != expected || !sameTopK(lsh, res)

    val answers = ec.answers.getOrElse(q, Set.empty[ColumnId])
    val loss = Metrics.recallAtK(exact.map(_.candidate), answers, K) -
      Metrics.recallAtK(lsh.map(_.candidate), answers, K)

    Map(
      "fetch.ms"                 -> fetchMs,
      "fetch.rows"               -> values.length.toDouble,
      "column_mean.ms"           -> meanMs,
      "lsh_hash.ms"              -> hashMs,
      "lookup.ms"                -> lookupMs,
      "lookup.candidates"        -> candidates.size.toDouble,
      "lookup.above_tau"         -> aboveTau.size.toDouble,
      "exact_scan.ms"            -> exactMs,
      "lookup.recall_loss_at_10" -> loss,
      "spark.overhead_ms"        -> (opMs - localMs - lookupMs),
      "audit.mismatch"           -> (if (mismatch) 1.0 else 0.0),
    )
  }

  /** Brute-force cosine over every indexed column with the probe's scope
    * filter and threshold: what the probe would return without LSH.
    */
  def exactScan(q: ColumnId, vec: Array[Double]): Seq[SearchResult] =
    columns.indices.iterator
      .filter(i => inScope(q, columns(i)))
      .map(i => SearchResult(q, columns(i), VectorOps.cosine(vec, vectors(i))))
      .filter(_.score >= tau)
      .toSeq.sortBy(-_.score).take(K)

  /** At most k answers, no duplicates, none out of scope, all at or above
    * tau, ranked by descending score.
    */
  def wellFormed(q: ColumnId, rs: Seq[SearchResult]): Boolean =
    rs.size <= K && rs.map(_.candidate).distinct.size == rs.size &&
      rs.forall(r => r.query == q && inScope(q, r.candidate) && r.score >= tau) &&
      rs.map(_.score).sliding(2).forall(p => p.size < 2 || p(0) >= p(1))
}

object Queries {
  /** Same candidates in the same order; scores equal up to floating-point
    * summation order (Spark may add partial sums in any order).
    */
  def sameTopK(a: Seq[SearchResult], b: Seq[SearchResult]): Boolean =
    a.map(_.candidate) == b.map(_.candidate) &&
      a.zip(b).forall { case (x, y) => math.abs(x.score - y.score) <= 1e-9 }

  private def sharesBand(a: Array[Int], b: Array[Int]): Boolean = {
    var i = 0
    while (i < a.length) { if (a(i) == b(i)) return true; i += 1 }
    false
  }
}
