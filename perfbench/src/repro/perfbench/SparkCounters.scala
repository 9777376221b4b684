package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Counts Spark's own work per timed operation.
  *
  * The harness tags each operation by setting the local property
  * [[SparkCounters.OpProperty]] on the calling thread before the call; Spark
  * copies local properties into every job it submits from that thread, so
  * jobs, stages, tasks and shuffle bytes land on the operation that caused
  * them even though listener events arrive asynchronously. Untagged work (the
  * traced run's replays) is not counted.
  */
final class SparkCounters extends SparkListener {
  private val stageOp = new ConcurrentHashMap[Int, String]()
  private val counts  = new ConcurrentHashMap[(String, String), AtomicLong]()
  private val started = new AtomicLong()
  private val ended   = new AtomicLong()
  private val events  = new AtomicLong()

  private def add(op: String, what: String, n: Long): Unit =
    counts.computeIfAbsent((op, what), _ => new AtomicLong()).addAndGet(n)

  private def opOf(props: java.util.Properties): Option[String] =
    Option(props).flatMap(p => Option(p.getProperty(SparkCounters.OpProperty)))

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    events.incrementAndGet(); started.incrementAndGet()
    opOf(e.properties).foreach { op =>
      add(op, "jobs", 1)
      e.stageIds.foreach(s => stageOp.put(s, op))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = { events.incrementAndGet(); ended.incrementAndGet() }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
    events.incrementAndGet()
    opOf(e.properties).foreach(add(_, "stages", 1))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    events.incrementAndGet()
    Option(stageOp.get(e.stageId)).foreach { op =>
      add(op, "tasks", 1)
      if (e.taskMetrics != null) add(op, "shuffle_write_bytes", e.taskMetrics.shuffleWriteMetrics.bytesWritten)
    }
  }

  /** Count of `what` ("jobs", "stages", "tasks", "shuffle_write_bytes") for `op`. */
  def get(op: String, what: String): Long = Option(counts.get((op, what))).fold(0L)(_.get)

  /** Wait until every started job has ended and no event arrived for a short
    * quiet period, so counts read afterwards are complete.
    */
  def drain(timeoutMs: Long = 10000): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    var last = -1L
    while (System.currentTimeMillis() < deadline &&
      (started.get != ended.get || events.get != last)) {
      last = events.get
      Thread.sleep(200)
    }
  }
}

object SparkCounters {
  val OpProperty = "perfbench.op"

  def register(sc: SparkContext): SparkCounters = {
    val c = new SparkCounters
    sc.addSparkListener(c)
    c
  }

  /** Run `body` with the Spark work it submits tagged as `op`. */
  def tagged[A](sc: SparkContext, op: String)(body: => A): A = {
    sc.setLocalProperty(OpProperty, op)
    try body finally sc.setLocalProperty(OpProperty, null)
  }
}
