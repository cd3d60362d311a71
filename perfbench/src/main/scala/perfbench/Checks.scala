package perfbench

import scala.collection.mutable.ArrayBuffer
import repro.cluster.QueryExec
import repro.moo.{FineConfig, MooResult}
import repro.moo.Pareto.Sol

/** Output checks applied to every solve and deployment, written
  * independently of the program's own Pareto code.
  */
object Checks {

  private def finiteNonNeg(x: Double): Boolean = !x.isNaN && !x.isInfinite && x >= 0

  /** `a` dominates `b` (both objectives minimised). */
  def dominates(a: (Double, Double), b: (Double, Double)): Boolean =
    a._1 <= b._1 && a._2 <= b._2 && (a._1 < b._1 || a._2 < b._2)

  /** Brute force: no point of `pts` dominates another. */
  def mutuallyNonDominated(pts: Seq[(Double, Double)]): Boolean =
    pts.indices.forall(i => pts.indices.forall(j => i == j || !dominates(pts(i), pts(j))))

  /** Problems with a solver's front for a query with `m` subQs. */
  def front(res: MooResult, m: Int): Vector[String] = {
    val f = res.front
    val errs = ArrayBuffer.empty[String]
    if (f.isEmpty) errs += "empty front"
    f.foreach { s =>
      if (!finiteNonNeg(s.f1) || !finiteNonNeg(s.f2)) errs += s"bad objectives (${s.f1}, ${s.f2})"
      errs ++= config(s.payload, m)
    }
    if (!mutuallyNonDominated(f.map(s => (s.f1, s.f2)))) errs += "front is not mutually non-dominated"
    errs.distinct.toVector
  }

  /** Problems with one fine-grained configuration for `m` subQs. */
  def config(fc: FineConfig, m: Int): Vector[String] = {
    val errs = ArrayBuffer.empty[String]
    if (fc.pU.size != m || fc.sU.size != m) errs += s"copy count ${fc.pU.size}/${fc.sU.size} != m=$m"
    val coords = fc.cU.iterator ++ fc.pU.iterator.flatMap(_.iterator) ++ fc.sU.iterator.flatMap(_.iterator)
    if (!coords.forall(u => u >= 0.0 && u <= 1.0)) errs += "unit coordinate outside [0, 1]"
    errs.toVector
  }

  /** The WUN pick must be one of the front's points. */
  def onFront(res: MooResult, pick: Sol[FineConfig]): Vector[String] =
    if (res.front.exists(s => fingerprint(s) == fingerprint(pick))) Vector.empty else Vector("WUN pick is not on the front")

  /** A simulated run must report finite wall time and cost. */
  def exec(e: QueryExec): Vector[String] =
    if (finiteNonNeg(e.wallSec) && finiteNonNeg(e.costUsd)) Vector.empty
    else Vector(s"non-finite run (wall ${e.wallSec}, cost ${e.costUsd})")

  /** A value-equal fingerprint of a recommendation, compared across passes. */
  def fingerprint(pick: Sol[FineConfig]): Vector[Double] = {
    val fc = pick.payload
    Vector(pick.f1, pick.f2) ++ fc.cU ++ fc.pU.flatten ++ fc.sU.flatten
  }
}

/** Operation accounting: one operation per (query, method, pass), per hook
  * request and per training; an operation fails if it throws or any check
  * reports a problem.
  */
final class Ledger {
  private var attempted0 = 0
  private val failures = ArrayBuffer.empty[String]

  def attempted: Int = attempted0
  def failed: Int = failures.size
  def messages: Vector[String] = failures.toVector

  /** Record one operation with the problems found in it. */
  def record(op: String, problems: Seq[String]): Unit = {
    attempted0 += 1
    if (problems.nonEmpty) failures += s"$op: ${problems.mkString("; ")}"
  }

  /** Run `body` as one operation; a throw counts as its failure. */
  def attempt[A](op: String)(body: => (A, Seq[String])): Option[A] =
    try {
      val (a, problems) = body
      record(op, problems)
      Some(a)
    } catch {
      case e: Exception =>
        record(op, Seq(s"threw $e"))
        None
    }
}
