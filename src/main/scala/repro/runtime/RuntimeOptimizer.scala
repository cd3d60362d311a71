package repro.runtime

import repro.cluster.{CostModel, RuntimeHooks}
import repro.model.QueryModels
import repro.params.{Candidate, Copy, Sampling, SparkParams, ThetaC, ThetaP, ThetaS}
import repro.workload.{QueryGraph, SubQ}

/** The runtime optimizer — the AQE plugin of §5.2.
  *
  * Invoked at the two hook points of Fig 2: when a collapsed logical plan
  * is re-optimized (re-tunes `θp` for the join stages about to be planned)
  * and when a query stage is created (re-tunes `θs`). Decisions are scored
  * with the learned models over *true* statistics of completed stages and
  * picked by the user's latency/cost preference.
  *
  * Request pruning (§C.2.2) happens in the simulator's AQE loop: hooks only
  * fire for join-planning collapsed plans with complete input statistics,
  * and for non-scan stages above the advisory partition size. The hook-call
  * counters here therefore measure *sent* requests.
  */
final class RuntimeOptimizer(
    qm: QueryModels,
    cU: Array[Double],
    pref: (Double, Double),
    pInit: ThetaP = ThetaP.default,
    nThetaPCandidates: Int = 24,
    seed: Long = 91L) extends RuntimeHooks {

  var lqpCalls: Int = 0
  var qsCalls: Int = 0

  /** Accumulated wall time spent inside the hooks (the runtime share of
    * HMOOC3+'s solving time in Table 4).
    */
  var optTimeSec: Double = 0.0

  // Candidate θp copies: a fixed LHS pool plus Spark defaults; the current
  // copy is always added at scoring time so "keep" is an option. Each is
  // encoded for scoring once per optimizer.
  private val pCandidates: Vector[ThetaP] =
    ThetaP.default +: Sampling.latinHypercube(nThetaPCandidates - 1, SparkParams.dP, seed)
      .map(u => ThetaP.fromUnit(Sampling.refine(u)))
  private val pCopies: Vector[Copy[ThetaP]] = pCandidates.map(Copy.of)

  // Candidate θs copies: small grid (2 params only).
  private val sCandidates: Vector[ThetaS] =
    ThetaS.default +: Sampling.grid(4, SparkParams.dS).map(u => ThetaS.fromUnit(u))
  private val sCopies: Vector[Copy[ThetaS]] = sCandidates.map(Copy.of)
  private val sDefault: Copy[ThetaS] = Copy.of(ThetaS.default)

  private val c: Copy[ThetaC] = Copy.c(cU)

  // The most recent θp copy handed back to AQE — QS-level scoring uses it
  // for the partition-count feature.
  private var currentP: Copy[ThetaP] = Copy.of(pInit)

  override def onCollapsedPlan(
      g: QueryGraph,
      readyJoins: Vector[SubQ],
      trueOut: Map[Int, CostModel.SideStats],
      current: ThetaP): ThetaP = {
    val t0 = System.nanoTime()
    lqpCalls += 1
    val copies = Copy.of(current) +: pCopies
    val cands = copies.map(p => Candidate(c, p, sDefault))
    val n = cands.size
    val lat = new Array[Double](n); val cost = new Array[Double](n)
    val l = new Array[Double](n); val io = new Array[Double](n)
    readyJoins.foreach { j =>
      qm.predict(QueryModels.TrueStats, j.id, cands, l, io)
      var k = 0
      while (k < n) {
        val (ll, cc) = qm.toObjectives(l(k), io(k), c.theta)
        lat(k) += ll; cost(k) += cc
        k += 1
      }
    }
    val k = pickPreferred(lat, cost)
    currentP = copies(k)
    optTimeSec += (System.nanoTime() - t0) / 1e9
    if (k == 0) current else pCandidates(k - 1)
  }

  override def onQueryStage(
      sub: SubQ,
      inputMb: Double,
      algo: Option[repro.workload.JoinAlgo],
      current: ThetaS): ThetaS = {
    val t0 = System.nanoTime()
    qsCalls += 1
    val algoCode = algo match {
      case Some(repro.workload.JoinAlgo.BHJ) => 1
      case Some(repro.workload.JoinAlgo.SHJ) => 2
      case Some(repro.workload.JoinAlgo.SMJ) => 3
      case None                              => 0
    }
    val cands = (Copy.of(current) +: sCopies).map(s => Candidate(c, currentP, s))
    val n = cands.size
    val lat = new Array[Double](n); val io = new Array[Double](n)
    qm.predict(QueryModels.Qs(algoCode), sub.id, cands, lat, io)
    val cost = Array.tabulate(n)(k => qm.toObjectives(lat(k), io(k), c.theta)._2)
    val k = pickPreferred(lat, cost)
    optTimeSec += (System.nanoTime() - t0) / 1e9
    if (k == 0) current else sCandidates(k - 1)
  }

  /** Preference-weighted pick over candidates, objectives normalized across
    * the candidate set (the WUN discipline applied to a point decision).
    * Returns the picked index. The incumbent copy (index 0) is kept unless a
    * challenger is predicted at least ~8% better — hysteresis against model
    * noise.
    */
  private def pickPreferred(lat: Array[Double], cost: Array[Double]): Int = {
    val lmin = lat.min; val lr = math.max(1e-12, lat.max - lmin)
    val cmin = cost.min; val cr = math.max(1e-12, cost.max - cmin)
    def weighted(k: Int): Double =
      pref._1 * (lat(k) - lmin + 1e-12) / lr + pref._2 * (cost(k) - cmin + 1e-12) / cr
    val best = lat.indices.minBy(weighted)
    val incScore = weighted(0)
    if (weighted(best) < incScore - 0.08 * math.max(incScore, 0.1)) best else 0
  }
}
