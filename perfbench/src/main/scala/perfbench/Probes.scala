package perfbench

import repro.cluster.{ClusterSpec, Simulator}
import repro.model.{Features, Models, PlanStats, QueryModels}
import repro.moo.{Hmooc, Pareto}
import repro.params.{Configuration, Sampling, SparkParams, ThetaC, ThetaP, ThetaS}
import repro.workload.TraceGen

/** Per-call timings of single layers, taken in the traced run by calling
  * their public entry points on each query's own inputs (the recommended
  * configurations and the solver's own sampling settings).
  */
object Probes {

  @volatile private var sink: Any = null

  /** Mean seconds per call of `f` over `iters` calls. */
  private def perCall(iters: Int)(f: => Any): Double = {
    val t0 = System.nanoTime()
    var i = 0
    while (i < iters) { sink = f; i += 1 }
    (System.nanoTime() - t0) / 1e9 / iters
  }

  /** Median over queries of each probe, in the unit its name states. */
  def run(w: Workload, models: Models, pass: Vector[QueryOutcome], spec: ClusterSpec): Map[String, Double] = {
    val sim = new Simulator(spec)
    val byName = w.queries.map(g => g.name -> g).toMap
    val rnd = new scala.util.Random(7L)
    val perQuery: Vector[Map[String, Double]] = pass.map { q =>
      val g = byName(q.name)
      val qm = new QueryModels(g, models, spec)
      val fc = q.h3Front.recommend(Workload.speedPref).payload
      val units = Vector.tabulate(qm.m)(fc.unit19)
      val c = fc.thetaC
      val reps = math.max(1, 400 / qm.m)
      def overSubQs(f: (Int, Array[Double]) => Any): Double =
        perCall(reps * qm.m) { val k = rnd.nextInt(qm.m); f(k, units(k)) }

      val s = Workload.hmoocSettings(g)
      val dPs = SparkParams.dP + SparkParams.dS
      val initC = Sampling.latinHypercube(s.nInitC, SparkParams.dC, s.seed + 1)
        .map(u => Sampling.refine(u).toArray)

      val sub0 = g.subQs(0)
      val (rows0, bytes0) = PlanStats.estIn(g, sub0)
      val x0 = Features.assemble(
        models.embedder.embedSubQ(sub0, rows0, bytes0),
        Features.NonDecision(bytes0 / 1048576.0, rows0, sub0.estOutBytes / 1048576.0,
          sub0.estOutRows.toDouble, 0.0, 0.0, 0.0),
        units(0) ++ Features.hints(0, sub0.isScan, writesShuffle = false, bytes0 / 1048576.0, units(0)))
      val mowsUnit = q.mowsFront.recommend(Workload.speedPref).payload.unit19(0)
      val mowsC = ThetaC.fromUnit(mowsUnit.slice(0, SparkParams.dC).toVector)
      val fronts = q.h3Front.front ++ q.mowsFront.front

      Map(
        "model.subq_objectives_us" -> overSubQs((i, u) => qm.subQObjectives(i, u, c)) * 1e6,
        "model.predict_subq_us" -> overSubQs((i, u) => qm.predictSubQ(i, u)) * 1e6,
        "model.predict_subq_true_us" -> overSubQs((i, u) => qm.predictSubQTrue(i, u)) * 1e6,
        "model.predict_qs_us" -> overSubQs((i, u) => qm.predictQs(i, u, 0, 0.0, 0.0)) * 1e6,
        "model.mlp_predict_us" -> perCall(400)(models.subQ.mlp.predict(x0)) * 1e6,
        "model.embed_subq_us" -> overSubQs { (i, _) =>
          val sub = g.subQs(i); val (r, b) = PlanStats.estIn(g, sub)
          models.embedder.embedSubQ(sub, r, b)
        } * 1e6,
        "model.query_objectives_us" -> perCall(math.max(4, 400 / qm.m))(qm.queryObjectives(mowsUnit, mowsC)) * 1e6,
        "params.theta_from_unit_us" -> overSubQs { (_, u) =>
          (ThetaC.fromUnit(u.slice(0, SparkParams.dC).toVector),
            ThetaP.fromUnit(u.slice(SparkParams.dC, SparkParams.dC + SparkParams.dP).toVector),
            ThetaS.fromUnit(u.slice(SparkParams.dC + SparkParams.dP, SparkParams.dAll).toVector))
        } * 1e6,
        "params.lhs_pool_ms" -> perCall(3)(
          Sampling.latinHypercube(s.nPool - 1, dPs, s.seed).map(u => Sampling.refine(u).toArray)) * 1e3,
        "moo.kmeans_ms" -> perCall(3)(Hmooc.kmeans(initC, s.nClusters, s.seed + 2)) * 1e3,
        "moo.crossover_ms" -> perCall(3)(Hmooc.crossover(initC, s.nEnrich, s.seed + 3)) * 1e3,
        "moo.wun_us" -> perCall(200)(Pareto.wun(q.h3Front.front, Workload.speedPref)) * 1e6,
        "moo.skyline_us" -> perCall(200)(Pareto.skyline(fronts)) * 1e6,
        "moo.front_size" -> q.h3Front.front.size.toDouble,
        "cluster.run_static_us" -> perCall(100)(sim.runStatic(g, Configuration.default, 1L)) * 1e6)
    }
    val nT = TraceGen.numTemplates(w.bench)
    val graphOf = perCall(200 * 4) {
      val i = rnd.nextInt(200)
      TraceGen.graphOf(w.bench, i % nT, 1L + i / nT)
    } * 1e6
    perQuery.head.keys.map(k => k -> Stats.median(perQuery.map(_(k)))).toMap +
      ("workload.graph_of_us" -> graphOf)
  }
}
