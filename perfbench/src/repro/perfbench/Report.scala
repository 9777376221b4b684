package repro.perfbench

import scala.collection.mutable

/** A metric value with its unit, as the benchmark reports it. */
final case class Metric(value: Double, unit: String)

/** Spans kept in memory during a traced run and written out when it ends.
  * Every span belongs to one operation (`op`); `parent` names the span that
  * caused it (empty for the operation's root span).
  */
final class Trace {
  final case class Span(op: Int, name: String, parent: String, startNs: Long, endNs: Long) {
    def ms: Double = (endNs - startNs) / 1e6
  }

  private val spans = mutable.ArrayBuffer[Span]()

  /** Record a span that was timed elsewhere; returns its length in ms. */
  def record(op: Int, name: String, parent: String, startNs: Long, endNs: Long): Double = {
    val s = Span(op, name, parent, startNs, endNs)
    spans += s
    s.ms
  }

  /** Run `body` inside a span and return its result with the span's length in ms. */
  def span[A](op: Int, name: String, parent: String)(body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, record(op, name, parent, t0, System.nanoTime()))
  }

  def toJson: Any = spans.map(s =>
    Map("op" -> s.op, "name" -> s.name, "parent" -> s.parent,
      "start_ns" -> s.startNs, "end_ns" -> s.endNs))
}

object Stats {
  /** Nearest-rank percentile; `p` in (0, 100]. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val sorted = xs.sorted
    sorted(math.max(0, math.ceil(p / 100.0 * sorted.size).toInt - 1))
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}

/** Just enough JSON writing for the report: maps, sequences, strings, numbers
  * and booleans. Non-finite numbers are written as `Infinity`/`NaN`, which
  * Python's `json` module reads back.
  */
object Json {
  def write(v: Any): String = {
    val sb = new StringBuilder
    def str(s: String): Unit = {
      sb += '"'
      s.foreach {
        case '"'  => sb ++= "\\\""
        case '\\' => sb ++= "\\\\"
        case '\n' => sb ++= "\\n"
        case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
        case c    => sb += c
      }
      sb += '"'
    }
    def go(x: Any): Unit = x match {
      case null                => sb ++= "null"
      case m: Metric           => go(Map("value" -> m.value, "unit" -> m.unit))
      case m: collection.Map[_, _] =>
        sb += '{'
        m.toSeq.sortBy(_._1.toString).zipWithIndex.foreach { case ((k, v), i) =>
          if (i > 0) sb += ','
          str(k.toString); sb += ':'; go(v)
        }
        sb += '}'
      case s: Iterable[_]      =>
        sb += '['
        s.zipWithIndex.foreach { case (e, i) => if (i > 0) sb += ','; go(e) }
        sb += ']'
      case s: String           => str(s)
      case b: Boolean          => sb ++= b.toString
      case d: Double if d.isNaN      => sb ++= "NaN"
      case d: Double if d.isInfinite => sb ++= (if (d > 0) "Infinity" else "-Infinity")
      case d: Double           => sb ++= java.lang.Double.toString(d)
      case n: Int              => sb ++= n.toString
      case n: Long             => sb ++= n.toString
      case o: Option[_]        => go(o.orNull)
      case other               => str(other.toString)
    }
    go(v)
    sb.toString
  }
}
