package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable

/** Spans recorded in the benchmark's own code around each call into the
  * program: workload → op → layer call. Spans live in memory and are written
  * out once, when the run ends. All calls come from the benchmark's single
  * client thread, so a plain stack tracks the current parent.
  *
  * When disabled, `span` only evaluates its body.
  */
final class Tracer(val enabled: Boolean) {

  final case class Span(id: Int, parent: Int, name: String, startNs: Long, var endNs: Long)

  private val origin = System.nanoTime()
  private val spans = mutable.ArrayBuffer[Span]()
  private var stack: List[Span] = Nil
  private var on = enabled

  def span[A](name: String)(body: => A): A =
    if (!on) body
    else {
      val s = Span(spans.length, stack.headOption.map(_.id).getOrElse(-1), name,
        System.nanoTime() - origin, -1L)
      spans += s
      stack = s :: stack
      try body
      finally {
        s.endNs = System.nanoTime() - origin
        stack = stack.tail
      }
    }

  /** Run `body` with span recording off: the untraced side of the tracing
    * overhead comparison.
    */
  def without[A](body: => A): A = {
    val was = on
    on = false
    try body finally on = was
  }

  /** Self time per span name, in seconds: each span's duration minus the
    * part of it that its child spans cover (children never overlap, since
    * one thread opens them in sequence).
    */
  def selfSeconds: Map[String, Double] = {
    val childNs = mutable.HashMap[Int, Long]().withDefaultValue(0L)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.endNs - s.startNs)
    spans.groupBy(_.name).view.mapValues { ss =>
      ss.map(s => (s.endNs - s.startNs - childNs(s.id)) / 1e9).sum
    }.toMap
  }

  def write(path: Path, header: Map[String, Any]): Unit = {
    val body = header ++ Map(
      "spans" -> spans.map(s => Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs)),
      "self_s" -> selfSeconds.toSeq.sortBy(-_._2).map { case (n, t) => Map("name" -> n, "self_s" -> t) })
    Files.createDirectories(path.getParent)
    Files.write(path, Json.write(body).getBytes(StandardCharsets.UTF_8))
  }
}
