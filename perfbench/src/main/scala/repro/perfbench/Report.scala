package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.ByteBuffer
import java.security.MessageDigest
import scala.collection.mutable

/** Summary statistics used by every workload. */
object Stats {

  /** Linear-interpolated quantile of `xs` at `p` in [0, 1]. */
  def quantile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val pos = p * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)


  /** The highest of the usual percentiles that still has at least ten
    * samples beyond it, or None when there are too few samples for any.
    */
  def tailPercentile(n: Int): Option[Double] =
    Seq(0.999, 0.99, 0.95, 0.9, 0.75).find(p => n * (1 - p) >= 10)

  /** Median and tail of a timing, with the sample count, for the report. */
  def timing(xs: Seq[Double]): Map[String, Any] = {
    val tail = tailPercentile(xs.length).map { p =>
      Map("p" + BigDecimal(p * 100).bigDecimal.stripTrailingZeros.toPlainString -> quantile(xs, p))
    }.getOrElse(Map.empty)
    Map("p50" -> median(xs), "samples" -> xs.length) ++ tail
  }

  /** Overall relative standard error of `est` against the true per-user
    * cardinalities: sqrt(mean over users of ((n̂ − n) / n)²).
    */
  def rse(truth: Array[Int], est: Array[Double]): Double =
    repro.eval.Metrics.rseByBucket(truth, u => est(u.toInt), _ => 0)(0)._2
}

/** SHA-256 of outputs, recorded so a later change can show its output is
  * bit-for-bit identical. Digests are reported, never gated on.
  */
object Digest {
  def hex(bytes: Array[Byte]): String = bytes.map(b => f"${b & 0xff}%02x").mkString

  def ofString(s: String): String =
    hex(MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8")))

  /** Digest of a per-user estimate vector, by the exact IEEE-754 bits. */
  def ofDoubles(xs: Array[Double]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = ByteBuffer.allocate(8)
    xs.foreach { x => buf.clear(); buf.putLong(java.lang.Double.doubleToLongBits(x)); md.update(buf.array()) }
    hex(md.digest())
  }
}

/** One recorded span: a named interval around a call into a layer. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** Spans, correctness checks, metrics and report details of one run.
  *
  * With tracing off, `span` only runs its body. With tracing on, it keeps
  * one [[Span]] per call in memory (name, start, end, parent), and the
  * spans are summarised when the run ends.
  */
final class Run(val traced: Boolean) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open = List(-1)
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  val details = mutable.LinkedHashMap.empty[String, Any]
  private var attemptedChecks = 0
  private var failedChecks = 0
  val failures = mutable.ArrayBuffer.empty[String]

  def span[A](name: String)(body: => A): A =
    if (!traced) body
    else {
      val id = spans.length
      val parent = open.head
      spans += null
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, parent, name, t0, System.nanoTime())
        open = open.tail
      }
    }

  /** Seconds taken by `body`, recorded as a span when tracing. */
  def timed[A](name: String)(body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = span(name)(body)
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Count one correctness check; a false `ok` is one failed operation. */
  def check(ok: Boolean, what: => String): Unit = {
    attemptedChecks += 1
    if (!ok) { failedChecks += 1; failures += what }
  }

  def metric(name: String, value: Double, unit: String): Unit = {
    check(!value.isNaN && !value.isInfinite, s"metric $name is not finite: $value")
    metrics(name) = (if (value.isNaN || value.isInfinite) -1.0 else value, unit)
  }

  def hasMetric(name: String): Boolean = metrics.contains(name)

  def detail(name: String, value: Any): Unit = details(name) = value

  /** An end-to-end metric: reported by untraced runs. A traced run keeps
    * it as a detail, except its wall time, which it reports as
    * `wall_s.traced` so the tracing overhead can be read off.
    */
  def endToEnd(name: String, value: Double, unit: String): Unit =
    if (!traced) metric(name, value, unit)
    else {
      detail(name, value)
      if (name == "wall_s") metric("wall_s.traced", value, unit)
    }

  /** A per-layer metric: reported by traced runs only. */
  def layer(name: String, value: Double, unit: String): Unit =
    if (traced) metric(name, value, unit) else detail(name, value)

  /** Self time per span name: each span's duration minus the time its
    * direct children cover, summed over the spans of that name, in ms.
    */
  def selfTimesMs: Map[String, Double] = {
    val childNs = mutable.Map.empty[Int, Long].withDefaultValue(0L)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.durNs)
    spans.groupBy(_.name).map { case (n, ss) =>
      n -> ss.map(s => s.durNs - childNs(s.id)).sum / 1e6
    }
  }

  def spanCount: Int = spans.length

  def resultLine: String = Json.render(Map(
    "correct" -> (failedChecks == 0),
    "attempted" -> math.max(1, attemptedChecks),
    "failed" -> failedChecks,
    "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) },
  ))
}

/** Heap held live after a full collection. */
object Heap {
  def liveMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}

/** Minimal JSON writer for maps, sequences, strings, numbers and booleans. */
object Json {
  private def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }

  def render(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => render(x)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float => render(f.toDouble)
    case n: Int => n.toString
    case n: Long => n.toString
    case s: String => str(s)
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => str(k.toString) + ": " + render(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_] => xs.map(render).mkString("[", ", ", "]")
    case xs: Array[_] => render(xs.toSeq)
    case other => str(other.toString)
  }
}
