package perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.{ClusterSpec, QueryExec, RuntimeHooks, Simulator}
import repro.model.{GraphEmbedder, Mlp, Models, QueryModels, RegModel}
import repro.moo.{FineConfig, Hmooc}
import repro.runtime.{RuntimeOptimizer, ThetaAggregator}
import repro.workload.{QueryGraph, TpcdsLite, TpchLite}

class TimedHooksSpec extends AnyFunSuite {

  // Untrained but deterministic models of the production input widths;
  // hook answers depend only on what the models predict, not on training.
  private val models = {
    def reg(in: Int, seed: Long) = RegModel(new Mlp(Array(in, 16, 2), seed), Array(0.0, 0.0), Array(1.0, 1.0))
    Models(new GraphEmbedder(seed = 5L), reg(58, 1L), reg(49, 2L), reg(59, 3L))
  }
  private val spec = ClusterSpec.default
  private val sim = new Simulator(spec)
  private val small = Hmooc.Settings(nInitC = 12, nClusters = 3, nPool = 24, nEnrich = 6)

  private def deploy(g: QueryGraph, fc: FineConfig, pref: (Double, Double), wrap: RuntimeHooks => RuntimeHooks): QueryExec = {
    val qm = new QueryModels(g, models, spec)
    val pAgg = ThetaAggregator.aggregateP(g, fc)
    val sAgg = ThetaAggregator.aggregateS(g, fc)
    val hooks = wrap(new RuntimeOptimizer(qm, fc.cU, pref, pInit = pAgg))
    sim.execute(g, fc.thetaC, sim.compilePlan(g, _ => pAgg), pAgg, sAgg, Some(hooks), noiseSeed = 11L)
  }

  test("the timing decorator returns exactly what the runtime optimizer returns") {
    val queries = Vector(TpchLite.queries(8), TpchLite.queries(4), TpcdsLite.queries.maxBy(_.numSubQs))
    for (g <- queries; pref <- Vector((0.9, 0.1), (0.1, 0.9))) {
      val fc = Hmooc.solve(new QueryModels(g, models, spec), small).recommend(pref).payload
      var timed: TimedHooks = null
      val plain = deploy(g, fc, pref, identity)
      val wrapped = deploy(g, fc, pref, h => { timed = new TimedHooks(h, new Tracer(true)); timed })
      assert(wrapped == plain, s"${g.name} $pref")
      assert(wrapped.wallSec == plain.wallSec && wrapped.costUsd == plain.costUsd)
      assert(timed.calls.size == plain.lqpRequestsSent + plain.qsRequestsSent)
      assert(timed.calls.count(_.kind == "lqp") == plain.lqpRequestsSent)
      assert(timed.calls.forall(c => c.sec >= 0))
    }
  }

  test("each hook call opens one span under the caller's span") {
    val g = TpchLite.queries(8)
    val fc = Hmooc.solve(new QueryModels(g, models, spec), small).recommend((0.9, 0.1)).payload
    val tracer = new Tracer(true)
    var timed: TimedHooks = null
    val exec = tracer.span("cluster.execute")(deploy(g, fc, (0.9, 0.1), h => { timed = new TimedHooks(h, tracer); timed }))
    val spans = tracer.spans
    val root = spans.find(_.name == "cluster.execute").get
    val hookSpans = spans.filter(_.name.startsWith("runtime."))
    assert(hookSpans.size == timed.calls.size)
    assert(hookSpans.size == exec.lqpRequestsSent + exec.qsRequestsSent)
    assert(hookSpans.forall(_.parent == root.id))
  }
}
