package perfbench

import java.io.PrintWriter
import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer

/** One recorded span: a call from the benchmark into a layer of the
  * program. `parent` is the index of the enclosing span (-1 at the root);
  * spans of one request (query × pass) share `request`.
  */
final case class Span(id: Int, name: String, startNs: Long, endNs: Long, parent: Int, request: String) {
  def durNs: Long = endNs - startNs
  /** The module the span's name starts with, e.g. `moo` for `moo.wun`. */
  def layer: String = name.takeWhile(_ != '.')
}

/** In-memory span recorder. Single-threaded: the open spans form a stack,
  * so a span's parent is whichever span was open when it started. When
  * disabled, [[span]] only runs its body.
  */
final class Tracer(val enabled: Boolean) {
  private val done = ArrayBuffer.empty[Span]
  private var open: List[(Int, String, Long)] = Nil
  private var nextId = 0
  private var request = ""

  /** Tag the spans that follow with a request id. */
  def setRequest(id: String): Unit = request = id

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.map(_._1).getOrElse(-1)
      open = (id, name, System.nanoTime()) :: open
      try body
      finally {
        val end = System.nanoTime()
        val (_, _, start) = open.head
        open = open.tail
        done += Span(id, name, start, end, parent, request)
      }
    }

  def spans: Vector[Span] = done.toVector.sortBy(_.id)

  /** Write the spans as JSON lines. */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val out = new PrintWriter(Files.newBufferedWriter(path))
    try spans.foreach { s =>
      out.println(Json.render(Json.obj(
        "id" -> s.id, "name" -> s.name, "start_ns" -> s.startNs, "end_ns" -> s.endNs,
        "parent" -> s.parent, "request" -> s.request)))
    } finally out.close()
  }
}

object Tracer {

  /** Self time of every span: its duration minus the time its direct
    * children cover (children of one span never overlap here).
    */
  def selfNs(spans: Seq[Span]): Map[Int, Long] = {
    val childNs = spans.filter(_.parent >= 0).groupMapReduce(_.parent)(_.durNs)(_ + _)
    spans.map(s => s.id -> (s.durNs - childNs.getOrElse(s.id, 0L))).toMap
  }

  /** Total self time per layer, in seconds. */
  def selfByLayer(spans: Seq[Span]): Map[String, Double] = {
    val self = selfNs(spans)
    spans.groupMapReduce(_.layer)(s => self(s.id) / 1e9)(_ + _)
  }

  /** Self times (seconds) of the spans called `name`. */
  def selfOf(spans: Seq[Span], name: String): Vector[Double] = {
    val self = selfNs(spans)
    spans.filter(_.name == name).map(s => self(s.id) / 1e9).toVector
  }

  /** Durations (seconds) of the spans called `name`. */
  def durOf(spans: Seq[Span], name: String): Vector[Double] =
    spans.filter(_.name == name).map(_.durNs / 1e9).toVector
}
