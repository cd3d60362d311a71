package perfbench

import scala.collection.mutable.ArrayBuffer
import repro.cluster.{CostModel, RuntimeHooks}
import repro.params.{ThetaP, ThetaS}
import repro.workload.{JoinAlgo, QueryGraph, SubQ}

/** One runtime-hook call seen by [[TimedHooks]]. */
final case class HookCall(kind: String, sec: Double, changed: Boolean)

/** Timing decorator around the runtime optimizer's two hooks: it times
  * every call, notes whether the answer differs from the incumbent copy,
  * opens a span when tracing, and returns exactly what `inner` returns.
  */
final class TimedHooks(inner: RuntimeHooks, tracer: Tracer) extends RuntimeHooks {
  val calls: ArrayBuffer[HookCall] = ArrayBuffer.empty

  private def timed[A](kind: String, current: A)(call: => A): A = {
    val t0 = System.nanoTime()
    val out = tracer.span(s"runtime.${kind}_request")(call)
    calls += HookCall(kind, (System.nanoTime() - t0) / 1e9, out != current)
    out
  }

  override def onCollapsedPlan(
      g: QueryGraph,
      readyJoins: Vector[SubQ],
      trueOut: Map[Int, CostModel.SideStats],
      current: ThetaP): ThetaP =
    timed("lqp", current)(inner.onCollapsedPlan(g, readyJoins, trueOut, current))

  override def onQueryStage(sub: SubQ, inputMb: Double, algo: Option[JoinAlgo], current: ThetaS): ThetaS =
    timed("qs", current)(inner.onQueryStage(sub, inputMb, algo, current))
}
