package repro.model

import repro.cluster.ClusterSpec
import repro.params.{Candidate, SparkParams, ThetaC, ThetaP}
import repro.workload.{QueryGraph, SubQ}

/** Per-subQ input statistics, estimated (CBO view) or true (runtime view). */
object PlanStats {
  /** Estimated input (rows, bytes): scans read the table (well-estimated);
    * other stages read their children's *estimated* outputs.
    */
  def estIn(g: QueryGraph, sub: SubQ): (Double, Double) =
    if (sub.isScan) (sub.trueInputRows.toDouble, sub.trueInputBytes.toDouble)
    else {
      val kids = sub.children.map(g.subQs)
      (kids.map(_.estOutRows.toDouble).sum, kids.map(_.estOutBytes.toDouble).sum)
    }

  /** True input (rows, bytes) — known at runtime once children complete. */
  def trueIn(g: QueryGraph, sub: SubQ): (Double, Double) =
    (sub.trueInputRows.toDouble, sub.trueInputBytes.toDouble)
}

/** A trained regressor head with its target scaler: the MLP is fit on
  * z-scored log targets (latencies span six orders of magnitude across
  * stages, so the log keeps errors relative); predictions are mapped back
  * to (latency sec, IO MB).
  *
  * Build it once training is done: it freezes an inference copy of the
  * weights ([[MlpKernel]]), so later training of `mlp` does not reach it.
  */
final case class RegModel(mlp: Mlp, yMean: Array[Double], yStd: Array[Double]) {

  private[model] val kernel: MlpKernel = mlp.freeze()

  /** Predict (latency seconds, IO MB) for one feature vector. */
  def predictLatIo(x: Array[Double]): (Double, Double) = {
    val out = kernel.predict(x)
    (latency(out), io(out))
  }

  /** Latency seconds from the regressor's outputs (floored at 10 µs). */
  private[model] def latency(out: Array[Double]): Double =
    math.max(1e-5, RegModel.unscale(out(0), yMean(0), yStd(0)))

  /** IO MB from the regressor's outputs. */
  private[model] def io(out: Array[Double]): Double = RegModel.unscale(out(1), yMean(1), yStd(1))
}

object RegModel {

  /** Bounds of a prediction in log space: e^±30 is about 1e±13 seconds or
    * MB, far beyond any simulated stage (targets span about 1e-5 s to 1e6 MB).
    */
  val LogMin: Double = -30.0
  val LogMax: Double = 30.0

  /** The one mapping from a standardized log output to a quantity: un-scale,
    * clamp to `[LogMin, LogMax]`, exponentiate. NaN maps to `LogMax`, so a
    * broken model reads as very slow and expensive instead of feeding
    * ∞ or NaN into Pareto filtering and WUN. Inside the range the value is
    * exactly `exp(z * std + mean)`.
    */
  def unscale(z: Double, mean: Double, std: Double): Double = {
    val v = z * std + mean
    math.exp(if (v.isNaN) LogMax else math.min(LogMax, math.max(LogMin, v)))
  }
}

/** The three trained models of §4.3 plus their shared embedder. */
final case class Models(embedder: GraphEmbedder, subQ: RegModel, qs: RegModel, lqp: RegModel)

object QueryModels {

  /** Which model and which statistics a prediction uses (§4.3). */
  sealed trait View

  /** subQ model on CBO estimates with β = γ = 0 (compile-time tuning). */
  case object Compile extends View

  /** subQ model on true statistics (runtime re-scoring of `θp` copies). */
  case object TrueStats extends View

  /** QS model: true statistics, `θp` dropped, the stage's physical join
    * algorithm as AQE planned it (0 none, 1 BHJ, 2 SHJ, 3 SMJ) and the
    * contention features γ.
    */
  final case class Qs(algoCode: Int, gammaSiblings: Double = 0.0, gammaWork: Double = 0.0) extends View
}

/** Model-backed objective evaluation for one query.
  *
  * Embeddings and non-decision features are configuration-independent
  * (Fig 6), so their share of the regressor's first layer is computed once
  * per subQ and view here (31 of the 58 inputs). Each candidate evaluation
  * then adds only θ and the rule hints and finishes one forward pass. This
  * is what gives HMOOC its low solving time relative to global methods
  * that must evaluate all `m` subQ models per sampled configuration.
  *
  * [[predict]] is the one scoring path; every solver and the runtime
  * optimizer call it, and the single-configuration methods wrap it.
  */
final class QueryModels(val g: QueryGraph, val models: Models, val spec: ClusterSpec) {
  import QueryModels._

  val m: Int = g.numSubQs

  private val subQs: Array[SubQ] = g.subQs.toArray
  private val prefixWidth = models.embedder.outDim + Features.ndDim
  require(models.subQ.kernel.inDim == prefixWidth + SparkParams.dAll + Features.hintDim,
    s"subQ model takes ${models.subQ.kernel.inDim} inputs")
  require(models.qs.kernel.inDim == prefixWidth + SparkParams.dC + SparkParams.dS + Features.hintDim,
    s"QS model takes ${models.qs.kernel.inDim} inputs")

  // Build-side size per join subQ (min child output), estimated and true.
  private val estBuildMb: Array[Double] = subQs.map { sub =>
    if (sub.isJoin) sub.children.map(c => subQs(c).estOutBytes).min / 1048576.0 else 0.0
  }
  private val trueBuildMb: Array[Double] = subQs.map { sub =>
    if (sub.isJoin) sub.children.map(c => subQs(c).trueOutBytes).min / 1048576.0 else 0.0
  }
  private val estInMb: Array[Double]  = subQs.map(s => PlanStats.estIn(g, s)._2 / 1048576.0)
  private val trueInMb: Array[Double] = subQs.map(s => PlanStats.trueIn(g, s)._2 / 1048576.0)
  private val parentOf: Map[Int, Int] = g.subQs.flatMap(s => s.children.map(_ -> s.id)).toMap
  private val estBuildMbOf: Int => Double = estBuildMb(_)

  /** First-layer partial sums of `kernel` over the θ-independent inputs. */
  private def firstLayerPrefix(kernel: MlpKernel, emb: Array[Double], nd: Features.NonDecision): Array[Double] = {
    val x = emb ++ nd.toArray
    val acc = kernel.newAccumulator()
    kernel.accumulate(acc, 0, x, x.length)
    acc
  }

  private val compilePrefix: Array[Array[Double]] = subQs.map { sub =>
    val (rows, bytes) = PlanStats.estIn(g, sub)
    firstLayerPrefix(models.subQ.kernel, models.embedder.embedSubQ(sub, rows, bytes),
      Features.NonDecision(bytes / 1048576.0, rows,
        sub.estOutBytes / 1048576.0, sub.estOutRows.toDouble, 0.0, 0.0, 0.0))
  }

  // Runtime views: true statistics, β from the generator's skew.
  private val trueEmb: Array[Array[Double]] = subQs.map { sub =>
    val (rows, bytes) = PlanStats.trueIn(g, sub)
    models.embedder.embedSubQ(sub, rows, bytes)
  }
  private def trueNd(i: Int, gammaSiblings: Double, gammaWork: Double): Features.NonDecision = {
    val sub = subQs(i)
    val (rows, bytes) = PlanStats.trueIn(g, sub)
    Features.NonDecision(bytes / 1048576.0, rows,
      sub.trueOutBytes / 1048576.0, sub.trueOutRows.toDouble, sub.skew - 1.0, gammaSiblings, gammaWork)
  }
  private val truePrefix: Array[Array[Double]] =
    Array.tabulate(m)(i => firstLayerPrefix(models.subQ.kernel, trueEmb(i), trueNd(i, 0.0, 0.0)))
  // The QS view is hoisted at γ = (0, 0), the value the runtime optimizer passes.
  private val qsPrefix: Array[Array[Double]] =
    Array.tabulate(m)(i => firstLayerPrefix(models.qs.kernel, trueEmb(i), trueNd(i, 0.0, 0.0)))

  private def copyInto(src: Array[Double], dst: Array[Double], off: Int): Int = {
    System.arraycopy(src, 0, dst, off, src.length)
    off + src.length
  }

  /** Predicted (analytical latency sec, IO MB) of subQ `i` under `view` for
    * each candidate: candidate `k`'s result goes to `lat(k)`, `io(k)`.
    */
  def predict(view: View, i: Int, cands: IndexedSeq[Candidate], lat: Array[Double], io: Array[Double]): Unit = {
    val sub = subQs(i)
    val (reg, prefix, inMb, algoOf) = view match {
      case Compile =>
        (models.subQ, compilePrefix(i), estInMb(i),
          (p: ThetaP) => Features.ruleAlgoCode(sub.isJoin, estBuildMb(i), p))
      case TrueStats =>
        (models.subQ, truePrefix(i), trueInMb(i),
          (p: ThetaP) => Features.ruleAlgoCode(sub.isJoin, trueBuildMb(i), p))
      case Qs(algo, gs, gw) =>
        val pre =
          if (gs == 0.0 && gw == 0.0) qsPrefix(i)
          else firstLayerPrefix(models.qs.kernel, trueEmb(i), trueNd(i, gs, gw))
        (models.qs, pre, trueInMb(i), (_: ThetaP) => algo)
    }
    val withP = !view.isInstanceOf[Qs] // the QS model drops θp
    val kernel = reg.kernel
    val tail = new Array[Double](kernel.inDim - prefixWidth)
    val acc = new Array[Double](kernel.firstWidth)
    val buffers = kernel.newBuffers()
    var k = 0
    while (k < cands.length) {
      val cand = cands(k)
      val p = cand.p.theta
      var off = copyInto(cand.c.unit, tail, 0)
      if (withP) off = copyInto(cand.p.unit, tail, off)
      off = copyInto(cand.s.unit, tail, off)
      Features.hintsInto(algoOf(p), sub.isScan, Features.writesShuffle(g, i, parentOf, estBuildMbOf, p),
        inMb, cand.c.theta, p, cand.s.theta, tail, off)
      System.arraycopy(prefix, 0, acc, 0, acc.length)
      kernel.accumulate(acc, prefixWidth, tail, tail.length)
      val out = kernel.finish(acc, buffers)
      lat(k) = reg.latency(out)
      io(k) = reg.io(out)
      k += 1
    }
  }

  /** Compile-time objectives of subQ `i` for each candidate: latency with
    * the candidate's start-up share goes to `lat(k)`, cloud cost to
    * `cost(k)`.
    */
  def subQObjectives(i: Int, cands: IndexedSeq[Candidate], lat: Array[Double], cost: Array[Double]): Unit = {
    predict(Compile, i, cands, lat, cost)
    var k = 0
    while (k < cands.length) {
      val c = cands(k).c.theta
      val l = lat(k) + startupShareSec(c)
      cost(k) = Objectives.costUsd(spec, c, l, cost(k))
      lat(k) = l
      k += 1
    }
  }

  /** Query-level objectives of `n = lat.length` configurations, where
    * subQ `i` of configuration `k` runs under `perSubQ(i)(k)` (a query-level
    * configuration passes the same candidates for every subQ): Λ = sum over
    * subQs (analytical latency and cost are both sum-aggregated, §4.2).
    */
  def queryObjectives(perSubQ: Int => IndexedSeq[Candidate], lat: Array[Double], cost: Array[Double]): Unit = {
    val n = lat.length
    java.util.Arrays.fill(lat, 0, n, 0.0)
    java.util.Arrays.fill(cost, 0, n, 0.0)
    val l = new Array[Double](n)
    val co = new Array[Double](n)
    var i = 0
    while (i < m) {
      subQObjectives(i, perSubQ(i), l, co)
      var k = 0
      while (k < n) { lat(k) += l(k); cost(k) += co(k); k += 1 }
      i += 1
    }
  }

  private def predictOne(view: View, i: Int, cand: IndexedSeq[Candidate]): (Double, Double) = {
    val lat = new Array[Double](1)
    val io = new Array[Double](1)
    predict(view, i, cand, lat, io)
    (lat(0), io(0))
  }

  /** Predicted (analytical latency sec, IO MB) of subQ `i` at compile time
    * under the unit-normalized 19-dim configuration.
    */
  def predictSubQ(i: Int, unit19: Array[Double]): (Double, Double) =
    predictOne(Compile, i, Vector(Candidate.fromUnit19(unit19)))

  /** Same as [[predictSubQ]] but with true runtime statistics. */
  def predictSubQTrue(i: Int, unit19: Array[Double]): (Double, Double) =
    predictOne(TrueStats, i, Vector(Candidate.fromUnit19(unit19)))

  /** Runtime QS model for one configuration (see [[QueryModels.Qs]]). */
  def predictQs(
      i: Int,
      unit19: Array[Double],
      algoCode: Int,
      gammaSiblings: Double,
      gammaWork: Double): (Double, Double) =
    predictOne(Qs(algoCode, gammaSiblings, gammaWork), i, Vector(Candidate.fromUnit19(unit19)))

  /** Convert a subQ's predicted (latency, IO) into (latency, cloud cost). */
  def toObjectives(latSec: Double, ioMb: Double, c: ThetaC): (Double, Double) =
    (latSec, Objectives.costUsd(spec, c, latSec, ioMb))

  /** Per-subQ share of the Spark-context bring-up time under `θc` (the
    * whole-query constant spread over the `m` subQs so that the Λ = sum
    * aggregation charges it exactly once).
    */
  def startupShareSec(c: ThetaC): Double =
    (spec.contextStartupSec + spec.execStartupSec * c.execInstances) / m

  /** Objectives of subQ `i` under one configuration (compile-time view). */
  def subQObjectives(i: Int, unit19: Array[Double], c: ThetaC): (Double, Double) = {
    val (lat, io) = predictSubQ(i, unit19)
    toObjectives(lat + startupShareSec(c), io, c)
  }

  /** Query-level objectives of one shared configuration (see the batch
    * [[queryObjectives]]).
    */
  def queryObjectives(unit19: Array[Double], c: ThetaC): (Double, Double) = {
    val cand = Vector(Candidate.fromUnit19(unit19))
    var lat = 0.0; var cost = 0.0
    var i = 0
    while (i < m) {
      val (l, io) = predictOne(Compile, i, cand)
      val (ll, co) = toObjectives(l + startupShareSec(c), io, c)
      lat += ll; cost += co
      i += 1
    }
    (lat, cost)
  }
}
