package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, collect_list}
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.corpus.{EvalCorpus, Testbeds}
import repro.eval.Metrics
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** A workload: the index mode it builds and queries. `sampleSize = None` is
  * the full-value mode of Table 2, `Some(n)` the sampled mode of §4.4.
  */
final case class Workload(name: String, sampleSize: Option[Int])

/** Closed-loop WarpGate benchmark: one client thread issues the next query
  * only after the previous answer arrived.
  *
  * Set-up starts Spark, generates and persists NextiaJD XS and builds the
  * workload's index. The run then makes seeded passes over the query list
  * for the given number of seconds and checks every answer. With `--trace 1`
  * each query is followed by replays of its layers on the same values, and
  * the set-up build by replays of the build's layers, so per-layer times and
  * counts come from the same inputs as the end-to-end operation.
  *
  * Writes one JSON report (metrics, correctness checks, run metadata) to the
  * `--report` path and, when traced, the spans to `--trace-out`.
  */
object PerfBench {

  val Workloads: Seq[Workload] = Seq(
    Workload("xs-full-query", None),
    Workload("xs-sampled-query", Some(100)),
  )

  val K = 10

  /** Answer-quality floor below which a run is reported incorrect. The seed
    * code is far above it; the end-to-end bounds on recall and precision
    * catch smaller losses.
    */
  val MinRecallAt10 = 0.5

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean,
                        rowScale: Double, warmupSeconds: Int, report: String, traceOut: Option[String])

  private def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workloads.find(_.name == need("workload")).getOrElse(throw new IllegalArgumentException(
      s"unknown workload ${need("workload")}; known: ${Workloads.map(_.name).mkString(", ")}"))
    Args(wl, need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      kv.getOrElse("row-scale", "1.0").toDouble, kv.getOrElse("warmup-seconds", "10").toInt,
      need("report"), kv.get("trace-out"))
  }

  def main(argv: Array[String]): Unit = {
    val args  = parse(argv)
    // Leave one core to the client thread, JIT and GC: a full-value query's
    // map stage runs one task per thread and waits for the slowest.
    val cores = math.max(1, math.min(3, Runtime.getRuntime.availableProcessors - 1))
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try {
      val report = new Run(spark, args).run()
      val out = java.nio.file.Paths.get(args.report)
      java.nio.file.Files.writeString(out, Json.write(report))
    } finally spark.stop()
  }

  /** Milliseconds of GC so far, summed over all collectors. */
  def gcMs(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** Milliseconds the JIT compilers have spent so far. */
  def jitMs(): Long = ManagementFactory.getCompilationMXBean.getTotalCompilationTime
}

/** One benchmark run of one workload. */
final class Run(spark: SparkSession, args: PerfBench.Args) {
  import PerfBench.K

  private val sc       = spark.sparkContext
  private val wl       = args.workload
  private val counters = if (args.trace) Some(SparkCounters.register(sc)) else None
  private val trace    = new Trace

  private def tagged[A](op: String)(body: => A): A = SparkCounters.tagged(sc, op)(body)
  private def sparkCount(op: String, what: String): Double = counters.fold(0.0)(_.get(op, what).toDouble)

  def run(): Map[String, Any] = {
    // ---- set-up: Spark start (already done), corpus, index ----------------
    val (ec, cells) = persisted(Testbeds.nextiaJd(spark, "XS", args.rowScale))
    val cfg = WarpGateConfig(sampleSize = wl.sampleSize)
    val (index, buildMs) = trace.span(0, "build", "")(tagged("build")(WarpGate.buildIndex(spark, ec.corpus, cfg)))
    val setupS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

    val q = new Queries(ec, index)

    // ---- closed loop ------------------------------------------------------
    val queries = ec.queries.toVector
    val order = Iterator.from(0).flatMap(p => new scala.util.Random(args.seed * 1000003L + p).shuffle(queries))
    val first     = mutable.LinkedHashMap[ColumnId, Seq[SearchResult]]()
    val unstable  = mutable.Set[ColumnId]()
    val latencies = mutable.ArrayBuffer[(ColumnId, Double)]()
    val opLayers  = mutable.ArrayBuffer[(ColumnId, Map[String, Double])]()
    val traced    = mutable.Set[ColumnId]()
    var attempted = 0; var failed = 0; var opId = 0

    def op(qc: ColumnId, timedOp: Boolean, traceOp: Boolean): Unit = {
      opId += 1; attempted += 1
      val tag  = s"q$opId"
      val gc0  = PerfBench.gcMs()
      val t0   = System.nanoTime()
      try {
        val res = tagged(tag)(q.answer(qc))
        val t1  = System.nanoTime()
        val gc  = (PerfBench.gcMs() - gc0).toDouble
        if (timedOp) latencies += qc -> (t1 - t0) / 1e6
        first.get(qc) match {
          case None       => first(qc) = res
          case Some(prev) => if (!Queries.sameTopK(prev, res)) unstable += qc
        }
        if (traceOp) {
          traced += qc
          opLayers += qc -> (q.traceQuery(trace, opId, qc, t0, t1, res) ++
            Map("op" -> opId.toDouble, "jvm.gc_ms" -> gc))
        }
      } catch {
        case NonFatal(e) =>
          failed += 1
          if (timedOp) latencies += qc -> Double.PositiveInfinity
          Console.err.println(s"[perfbench] query $qc failed: $e")
      }
    }

    // Spark's query path keeps getting faster for hundreds of jobs (codegen,
    // then JIT of the generated classes), so warm up by time, not by count.
    val warmupEnd = System.nanoTime() + args.warmupSeconds * 1000000000L
    while (System.nanoTime() < warmupEnd) op(order.next(), timedOp = false, traceOp = false)
    val warmupOps = opId
    val (gcAtStart, jitAtStart) = (PerfBench.gcMs(), PerfBench.jitMs())
    val deadline = System.nanoTime() + args.seconds * 1000000000L
    while (System.nanoTime() < deadline) op(order.next(), timedOp = true, traceOp = args.trace)
    val (timedGcMs, timedJitMs) = (PerfBench.gcMs() - gcAtStart, PerfBench.jitMs() - jitAtStart)
    // A short run may end before every query was timed (and, when traced,
    // audited) once; do the rest so the percentiles, recall and the
    // per-query counts cover the whole query set.
    val timed = latencies.map(_._1).toSet
    queries.filterNot(qc => timed.contains(qc) && (!args.trace || traced.contains(qc)))
      .foreach(qc => op(qc, timedOp = !timed.contains(qc), traceOp = args.trace))

    // ---- correctness ------------------------------------------------------
    val ranked  = first.map { case (k, v) => k -> v.map(_.candidate) }.toMap
    val pr      = Metrics.evaluate(ranked, ec.answers, queries, Seq(K)).head
    val invalid = first.count { case (qc, rs) => !q.wellFormed(qc, rs) }
    val auditMismatches = opLayers.count(_._2("audit.mismatch") > 0)
    val correct = failed == 0 && unstable.isEmpty && invalid == 0 && auditMismatches == 0 &&
      pr.recall >= PerfBench.MinRecallAt10

    // The build's replays come last: their token cache and collected values
    // would otherwise weigh on the heap while queries are traced.
    counters.foreach(_.drain())
    val perLayer =
      if (!args.trace) Map.empty[String, Metric]
      else aggregateQueryLayers(opLayers.toSeq) ++ traceBuild(ec, index, buildMs)

    val heapMb = heapAfterGcMb()
    // Percentiles are taken over the query set: each query's latency is the
    // median of its timed passes. A pause or a burst of host load then moves
    // one sample of one query, not the tail, and every query weighs the same
    // whichever part of the last pass the run reached.
    val passes   = latencies.groupBy(_._1).map { case (qc, ls) => qc -> ls.map(_._2).toSeq }
    val perQuery = passes.map { case (qc, ls) => qc -> Stats.median(ls) }
    val queryLat = perQuery.values.toSeq
    val endToEnd = Map(
      "setup_s"          -> Metric(setupS, "s"),
      "query_p50_ms"     -> Metric(Stats.percentile(queryLat, 50), "ms"),
      "query_p90_ms"     -> Metric(Stats.percentile(queryLat, 90), "ms"),
      "recall_at_10"     -> Metric(pr.recall, "ratio"),
      "precision_at_10"  -> Metric(pr.precision, "ratio"),
      "heap_after_gc_mb" -> Metric(heapMb, "MB"),
    )
    args.traceOut.foreach(p => java.nio.file.Files.writeString(java.nio.file.Paths.get(p), Json.write(trace.toJson)))

    Map(
      "correct"   -> correct,
      "attempted" -> attempted,
      "failed"    -> failed,
      "metrics"   -> (if (args.trace) perLayer else endToEnd),
      "checks"    -> Map(
        "failed_frac"       -> failed.toDouble / attempted,
        "unstable_queries"  -> unstable.size,
        "malformed_answers" -> invalid,
        "audit_mismatches"  -> auditMismatches,
        "recall_at_10"      -> pr.recall,
        "min_recall_at_10"  -> PerfBench.MinRecallAt10,
      ),
      "meta" -> Map(
        "workload"            -> wl.name,
        "seed"                -> args.seed,
        "seconds"             -> args.seconds,
        "trace"               -> args.trace,
        "nproc"               -> Runtime.getRuntime.availableProcessors,
        "spark_master"        -> sc.master,
        "spark_version"       -> sc.version,
        "default_parallelism" -> sc.defaultParallelism,
        "jvm"                 -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
        "corpus"              -> ec.corpus.name,
        "row_scale"           -> args.rowScale,
        "tables"              -> ec.corpus.tables.size,
        "columns"             -> ec.corpus.columnIds.size,
        "cells"               -> cells,
        "queries"             -> queries.size,
        "k"                   -> K,
        "sample_size"         -> wl.sampleSize,
        "warmup_seconds"      -> args.warmupSeconds,
        "warmup_ops"          -> warmupOps,
        "timed_gc_ms"         -> timedGcMs,
        "timed_jit_ms"        -> timedJitMs,
        "timed_queries"       -> latencies.size,
        "percentile_samples"  -> queryLat.size,
        "passes_per_query"    -> Map("min" -> passes.values.map(_.size).min, "max" -> passes.values.map(_.size).max),
        "end_to_end"          -> endToEnd,
      ),
      "latencies_ms" -> latencies.map { case (qc, l) => Map("query" -> qc.toString, "ms" -> l) },
      "query_median_ms" -> perQuery.map { case (qc, l) => qc.toString -> l },
    )
  }

  /** Persist every table (the warehouse holds its data; generation is not a
    * scan cost) and return the corpus with its cell count.
    */
  private def persisted(ec: EvalCorpus): (EvalCorpus, Long) = {
    val tables = ec.corpus.tables.map(t => t.copy(df = t.df.persist(StorageLevel.MEMORY_AND_DISK)))
    // Materialize the tables from a few threads: each is a small job whose
    // time is mostly planning and codegen.
    val pool  = java.util.concurrent.Executors.newFixedThreadPool(4)
    val cells = try {
      tables.map(t => pool.submit(() => t.df.count() * t.df.columns.length)).map(_.get).sum
    } finally pool.shutdown()
    (ec.copy(corpus = ec.corpus.copy(tables = tables)), cells)
  }

  private def heapAfterGcMb(): Double = {
    System.gc(); Thread.sleep(100); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }

  /** Replays of the set-up build's layers on the same corpus and config. */
  private def traceBuild(ec: EvalCorpus, index: WarpGateIndex, buildMs: Double): Map[String, Metric] = {
    val n      = wl.sampleSize
    val model  = index.config.model
    val corpus = ec.corpus
    def span[A](name: String)(body: => A) = trace.span(0, s"build.$name", "build")(body)

    val (cells, meltMs)   = span("melt")(corpus.meltAll(n).count())
    val (rows, collectMs) = span("collect")(corpus.meltAll(n).select("database", "table", "column", "value").collect())
    val values = rows.map(_.getString(3))
    val (tokens, tokenizeMs) = span("tokenize")(values.iterator.map(v => Tokenizer.tokenize(v).size.toLong).sum)
    val unique = new java.util.HashSet[String]()
    values.foreach(v => Tokenizer.tokenize(v).foreach(unique.add))
    // A model instance with its own seed has its own (empty) token cache, so
    // the first pass computes every token vector and the second shows what
    // the cache saves at this working-set size.
    val fresh = new WebTableEmbeddingModel(seed = 1000003)
    val (_, coldMs) = span("embed.cold")(values.foreach(fresh.embedValue))
    val (_, warmMs) = span("embed.warm")(values.foreach(fresh.embedValue))
    val (_, meanMs) = span("column_mean")(ColumnEmbedder.embedColumns(corpus.meltAll(n), model).select("vec").collect())
    val (_, samplePassMs) = n match {
      case Some(m) => span("sample_pass")(corpus.meltAll(Some(m)).groupBy("database", "table", "column")
        .agg(collect_list(col("value"))).collect())
      case None => ((), 0.0)
    }
    val (_, hashMs) = span("lsh_hash")(index.vectors.foreach(index.lsh.bandHashes))
    val byColumn = rows.groupBy(r => (r.getString(0), r.getString(1), r.getString(2))).values.map(_.map(_.getString(3)))
    val (_, localMs) = span("driver_replay")(byColumn.foreach(vs => ColumnEmbedder.embedValuesLocal(vs, model)))

    def c(v: Double) = Metric(v, "count")
    def ms(v: Double) = Metric(v, "ms")
    Map(
      "build.ms"                -> ms(buildMs),
      "melt.ms"                 -> ms(meltMs),
      "melt.cells"              -> c(cells.toDouble),
      "build.collect.ms"        -> ms(collectMs),
      "tokenize.ms"             -> ms(tokenizeMs),
      "tokenize.tokens"         -> c(tokens.toDouble),
      "embed.cold_ms"           -> ms(coldMs),
      "embed.warm_ms"           -> ms(warmMs),
      "embed.warm_over_cold"    -> Metric(warmMs / coldMs, "ratio"),
      "embed.unique_tokens"     -> c(unique.size.toDouble),
      "build.column_mean.ms"    -> ms(meanMs),
      "build.lsh_hash.ms"       -> ms(hashMs),
      "build.sample_pass.ms"    -> ms(samplePassMs),
      "build.residual.ms"       -> ms(buildMs - meanMs - samplePassMs - hashMs),
      "build.spark.overhead_ms" -> ms(buildMs - localMs - hashMs),
      "build.spark.jobs"        -> c(sparkCount("build", "jobs")),
      "build.spark.stages"      -> c(sparkCount("build", "stages")),
      "build.spark.tasks"       -> c(sparkCount("build", "tasks")),
      "build.spark.shuffle_write_bytes" -> Metric(sparkCount("build", "shuffle_write_bytes"), "bytes"),
    )
  }

  /** Per-query layer metrics: times are medians over all traced queries;
    * counts are means over the distinct queries (the first traced answer of
    * each), so they repeat exactly from run to run. Spark counts are read
    * after the listener drained.
    */
  private def aggregateQueryLayers(ops: Seq[(ColumnId, Map[String, Double])]): Map[String, Metric] = {
    val firstOfEach = ops.groupBy(_._1).values.map(_.head._2).toSeq
    def all(k: String) = ops.map(_._2(k))
    def each(k: String) = firstOfEach.map(_(k))
    def med(k: String, unit: String) = Metric(Stats.median(all(k)), unit)
    def avg(k: String, unit: String) = Metric(Stats.mean(each(k)), unit)
    def perOp(what: String, unit: String) =
      Metric(Stats.mean(each("op").map(id => sparkCount(s"q${id.toInt}", what))), unit)
    Map(
      "spark.jobs_per_op"                -> perOp("jobs", "count"),
      "spark.stages_per_op"              -> perOp("stages", "count"),
      "spark.tasks_per_op"               -> perOp("tasks", "count"),
      "spark.shuffle_write_bytes_per_op" -> perOp("shuffle_write_bytes", "bytes"),
      "spark.overhead_ms"                -> med("spark.overhead_ms", "ms"),
      "fetch.ms"                         -> med("fetch.ms", "ms"),
      "fetch.rows"                       -> avg("fetch.rows", "count"),
      "column_mean.ms"                   -> med("column_mean.ms", "ms"),
      "lsh_hash.ms"                      -> med("lsh_hash.ms", "ms"),
      "lookup.ms"                        -> med("lookup.ms", "ms"),
      "lookup.candidates"                -> avg("lookup.candidates", "count"),
      "lookup.above_tau"                 -> avg("lookup.above_tau", "count"),
      "lookup.useful_ratio"              -> Metric(each("lookup.above_tau").sum / math.max(1.0, each("lookup.candidates").sum), "ratio"),
      "exact_scan.ms"                    -> med("exact_scan.ms", "ms"),
      "lookup.recall_loss_at_10"         -> avg("lookup.recall_loss_at_10", "ratio"),
      "jvm.gc_ms"                        -> Metric(Stats.mean(all("jvm.gc_ms")), "ms"),
    )
  }
}
