package repro.model

import java.lang.Double.doubleToRawLongBits
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestProp.forAllSeeds
import repro.cluster.ClusterSpec
import repro.moo.{Baselines, Pareto}
import repro.params.{Candidate, Configuration, SparkParams}
import repro.workload.{QueryGraph, TpcdsLite, TpchLite}

/** The inference kernel and the batch scoring API against the training-time
  * forward pass and the assembled-vector path, bit for bit.
  */
class InferenceKernelSpec extends AnyFunSuite {

  private def sameBits(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length && a.indices.forall(k => doubleToRawLongBits(a(k)) == doubleToRawLongBits(b(k)))

  /** Random inputs with exact zeros and negative zeros mixed in. */
  private def input(rnd: Random, n: Int): Array[Double] = Array.fill(n) {
    rnd.nextInt(6) match {
      case 0 => 0.0
      case 1 => -0.0
      case _ => rnd.nextGaussian()
    }
  }

  test("the frozen kernel matches Mlp.predict bit for bit on random models") {
    forAllSeeds(20) { rnd =>
      val sizes = Vector(Array(58, 128, 128, 2), Array(49, 16, 2), Array(5, 3), Array(7, 9, 4, 6, 1))(rnd.nextInt(4))
      val mlp = new Mlp(sizes, rnd.nextLong())
      val kernel = mlp.freeze()
      for (_ <- 1 to 20) {
        val x = input(rnd, sizes.head)
        assert(sameBits(kernel.predict(x), mlp.predict(x)))
      }
    }
  }

  test("the frozen kernel matches Mlp.predict bit for bit on a trained model") {
    val rnd = new Random(5)
    val xs = Array.fill(256)(input(rnd, 12))
    val ys = xs.map(x => Array(x(0) * 2 - x(3), math.sin(x(5)) + x(7) * x(8)))
    val mlp = new Mlp(Array(12, 32, 32, 2), 3)
    mlp.train(xs, ys, epochs = 8, lr = 3e-3)
    val kernel = mlp.freeze()
    (xs.take(64) ++ Array.fill(64)(input(rnd, 12))).foreach(x => assert(sameBits(kernel.predict(x), mlp.predict(x))))
  }

  test("a frozen kernel does not follow later training") {
    val mlp = new Mlp(Array(3, 4, 1), 1)
    val kernel = mlp.freeze()
    val x = Array(0.2, 0.4, 0.6)
    val before = kernel.predict(x)
    mlp.train(Array.fill(8)(x), Array.fill(8)(Array(5.0)), epochs = 3)
    assert(sameBits(kernel.predict(x), before))
    assert(!sameBits(mlp.predict(x), before))
  }

  // ---- QueryModels views against the assembled-vector path --------------- //

  /** Production-width models with non-trivial target scalers. */
  private val models: Models = {
    val emb = new GraphEmbedder()
    val subQIn = emb.outDim + Features.ndDim + SparkParams.dAll + Features.hintDim
    val qsIn = emb.outDim + Features.ndDim + SparkParams.dC + SparkParams.dS + Features.hintDim
    def reg(in: Int, s: Long) =
      RegModel(new Mlp(Array(in, 128, 128, 2), s), Array(-1.0, 3.0), Array(2.0, 1.5))
    Models(emb, reg(subQIn, 11), reg(qsIn, 12), reg(subQIn + 1, 13))
  }
  private val spec = ClusterSpec.default

  /** The reference: assemble the full input vector and run `Mlp.predict`. */
  private def assembled(reg: RegModel, x: Array[Double]): (Double, Double) = {
    val out = reg.mlp.predict(x)
    (math.max(1e-5, math.exp(out(0) * reg.yStd(0) + reg.yMean(0))),
      math.max(0.0, math.exp(out(1) * reg.yStd(1) + reg.yMean(1))))
  }

  private def reference(g: QueryGraph, view: QueryModels.View, i: Int, u: Array[Double]): (Double, Double) = {
    val sub = g.subQs(i)
    val parentOf = g.subQs.flatMap(s => s.children.map(_ -> s.id)).toMap
    def buildMb(est: Boolean)(id: Int): Double = {
      val s = g.subQs(id)
      if (!s.isJoin) 0.0
      else s.children.map(c => if (est) g.subQs(c).estOutBytes else g.subQs(c).trueOutBytes).min / 1048576.0
    }
    val writes = Features.writesShuffle(g, i, parentOf, buildMb(est = true), u)
    view match {
      case QueryModels.Compile =>
        val (rows, bytes) = PlanStats.estIn(g, sub)
        val algo = Features.ruleAlgoCode(sub.isJoin, buildMb(est = true)(i), u)
        assembled(models.subQ, Features.assemble(models.embedder.embedSubQ(sub, rows, bytes),
          Features.NonDecision(bytes / 1048576.0, rows, sub.estOutBytes / 1048576.0,
            sub.estOutRows.toDouble, 0.0, 0.0, 0.0),
          u ++ Features.hints(algo, sub.isScan, writes, bytes / 1048576.0, u)))
      case QueryModels.TrueStats =>
        val (rows, bytes) = PlanStats.trueIn(g, sub)
        val algo = Features.ruleAlgoCode(sub.isJoin, buildMb(est = false)(i), u)
        assembled(models.subQ, Features.assemble(models.embedder.embedSubQ(sub, rows, bytes),
          Features.NonDecision(bytes / 1048576.0, rows, sub.trueOutBytes / 1048576.0,
            sub.trueOutRows.toDouble, sub.skew - 1.0, 0.0, 0.0),
          u ++ Features.hints(algo, sub.isScan, writes, bytes / 1048576.0, u)))
      case QueryModels.Qs(algo, gs, gw) =>
        val (rows, bytes) = PlanStats.trueIn(g, sub)
        assembled(models.qs, Features.assemble(models.embedder.embedSubQ(sub, rows, bytes),
          Features.NonDecision(bytes / 1048576.0, rows, sub.trueOutBytes / 1048576.0,
            sub.trueOutRows.toDouble, sub.skew - 1.0, gs, gw),
          Features.dropThetaP(u) ++ Features.hints(algo, sub.isScan, writes, bytes / 1048576.0, u)))
    }
  }

  /** Random unit configurations plus the defaults and the domain corners
    * (whose exact-zero coordinates exercise the kernel's zero skip).
    */
  private def configs(rnd: Random): Vector[Array[Double]] =
    Vector(Features.unitAll(Configuration.default.toVector),
      Array.fill(SparkParams.dAll)(0.0), Array.fill(SparkParams.dAll)(1.0)) ++
      Vector.fill(5)(Array.fill(SparkParams.dAll)(rnd.nextDouble()))

  private val views: Vector[QueryModels.View] = Vector(
    QueryModels.Compile, QueryModels.TrueStats,
    QueryModels.Qs(0), QueryModels.Qs(1), QueryModels.Qs(2), QueryModels.Qs(3),
    QueryModels.Qs(3, gammaSiblings = 2.0, gammaWork = 15.0))

  private def checkPlan(g: QueryGraph, rnd: Random): Unit = {
    val qm = new QueryModels(g, models, spec)
    val us = configs(rnd)
    val cands = us.map(Candidate.fromUnit19)
    val lat = new Array[Double](us.size); val io = new Array[Double](us.size)
    for (view <- views; i <- 0 until qm.m) {
      qm.predict(view, i, cands, lat, io)
      us.indices.foreach { k =>
        val (rl, ri) = reference(g, view, i, us(k))
        assert(doubleToRawLongBits(lat(k)) == doubleToRawLongBits(rl) &&
          doubleToRawLongBits(io(k)) == doubleToRawLongBits(ri),
          s"${g.name} subQ $i $view candidate $k: ($rl, $ri) vs (${lat(k)}, ${io(k)})")
      }
    }
    // The query-level batch equals the per-configuration sum of subQ objectives.
    val cost = new Array[Double](us.size)
    qm.queryObjectives(_ => cands, lat, cost)
    us.indices.foreach { k =>
      val c = cands(k).c.theta
      var l = 0.0; var co = 0.0
      for (i <- 0 until qm.m) {
        val (rl, ri) = reference(g, QueryModels.Compile, i, us(k))
        val (ll, cc) = qm.toObjectives(rl + qm.startupShareSec(c), ri, c)
        l += ll; co += cc
      }
      assert(lat(k) == l && cost(k) == co, s"${g.name} candidate $k")
      assert(qm.queryObjectives(us(k), c) == ((l, co)))
    }
  }

  test("every view matches the assembled-vector path on all TPC-H-lite plans") {
    val rnd = new Random(1)
    TpchLite.queries.foreach(checkPlan(_, rnd))
  }

  test("every view matches the assembled-vector path on all TPC-DS-lite plans") {
    val rnd = new Random(2)
    TpcdsLite.queries.foreach(checkPlan(_, rnd))
  }

  test("every view matches on a single-subQ plan and on a plan with no joins") {
    val rnd = new Random(3)
    val q1 = TpchLite.queries(0)
    assert(!q1.subQs.exists(_.isJoin))
    checkPlan(q1, rnd)
    val single = QueryGraph("single-scan", Vector(q1.subQs(0)))
    assert(single.numSubQs == 1)
    checkPlan(single, rnd)
  }

  // ---- non-finite model outputs ------------------------------------------ //

  private def poisoned(bias: Double): Models = {
    val base = TestModels.untrained()
    base.subQ.mlp.b.last(0) = bias
    base.subQ.mlp.b.last(1) = bias
    base.copy(subQ = RegModel(base.subQ.mlp, base.subQ.yMean, base.subQ.yStd))
  }

  test("NaN and overflowing outputs map to the ends of the documented range") {
    val x = Array.fill(TestModels.untrained().subQ.kernel.inDim)(0.3)
    val hi = math.exp(RegModel.LogMax)
    assert(poisoned(Double.NaN).subQ.predictLatIo(x) == ((hi, hi)))
    assert(poisoned(1e6).subQ.predictLatIo(x) == ((hi, hi)))
    assert(poisoned(-1e6).subQ.predictLatIo(x) == ((1e-5, math.exp(RegModel.LogMin))))
  }

  test("skyline and WUN return a finite pick when the model emits NaN or huge values") {
    val g = TpchLite.queries(8)
    for (bias <- Seq(Double.NaN, 1e6, 1e300)) {
      val qm = new QueryModels(g, poisoned(bias), spec)
      val front = Baselines.mooWs(qm, nSamples = 40).front
      assert(front.forall(s => s.f1.isFinite && s.f2.isFinite))
      val pick = Pareto.wun(Pareto.skyline(front), (0.9, 0.1))
      assert(pick.f1.isFinite && pick.f2.isFinite, s"bias $bias")
    }
  }
}
