package repro.model

import repro.cluster.{ClusterSpec, CostModel}
import repro.params.{Candidate, SparkParams, ThetaC, ThetaP, ThetaS}
import repro.workload.QueryGraph

/** Feature assembly shared by the three model targets (§4.3).
  *
  * A model input is `embedding ⊕ non-decision ⊕ decision`:
  *   - the plan embedding comes from [[GraphEmbedder]];
  *   - non-decision variables are α (input characteristics: log bytes/rows),
  *     β (partition-size dispersion) and γ (parallel-stage contention);
  *   - decision variables are the tunable parameters, normalized to
  *     `[0,1]` via their domains ([[SparkParams]]); the runtime QS model
  *     drops `θp` because those choices are already frozen (§4.3).
  */
object Features {

  /** Non-decision variables for one sample. Compile-time subQ models use
    * `α = α_cbo`, `β = 0`, `γ = 0` (§4.3); runtime models use true values.
    */
  final case class NonDecision(
      inputMb: Double,
      inputRows: Double,
      outMb: Double,
      outRows: Double,
      beta: Double,
      gammaSiblings: Double,
      gammaWorkSec: Double) {

    def toArray: Array[Double] = Array(
      math.log1p(math.max(0.0, inputMb)) / 15.0,
      math.log1p(math.max(0.0, inputRows)) / 25.0,
      math.log1p(math.max(0.0, outMb)) / 15.0,
      math.log1p(math.max(0.0, outRows)) / 25.0,
      beta / 5.0,
      gammaSiblings / 10.0,
      math.log1p(math.max(0.0, gammaWorkSec)) / 10.0)
  }

  val ndDim: Int = 7

  /** Normalize a typed 19-value configuration vector to unit coordinates. */
  def unitAll(raw: IndexedSeq[Double]): Array[Double] = {
    require(raw.size == SparkParams.dAll, s"expected ${SparkParams.dAll} values")
    val defs = SparkParams.thetaCDefs ++ SparkParams.thetaPDefs ++ SparkParams.thetaSDefs
    defs.zip(raw).map { case (d, v) => d.toUnit(v) }.toArray
  }

  /** Build the model input vector. `theta` is already unit-normalized; the
    * QS model passes the 10-dim `θc ⊕ θs` slice, the others all 19 dims.
    */
  def assemble(embedding: Array[Double], nd: NonDecision, theta: Array[Double]): Array[Double] = {
    val out = new Array[Double](embedding.length + ndDim + theta.length)
    System.arraycopy(embedding, 0, out, 0, embedding.length)
    val ndArr = nd.toArray
    System.arraycopy(ndArr, 0, out, embedding.length, ndDim)
    System.arraycopy(theta, 0, out, embedding.length + ndDim, theta.length)
    out
  }

  /** Drop the `θp` block from a 19-dim unit vector (for the QS model). */
  def dropThetaP(unit19: Array[Double]): Array[Double] = {
    val out = new Array[Double](SparkParams.dC + SparkParams.dS)
    System.arraycopy(unit19, 0, out, 0, SparkParams.dC)
    System.arraycopy(unit19, SparkParams.dC + SparkParams.dP, out, SparkParams.dC, SparkParams.dS)
    out
  }

  /** Width of the rule-hint block appended after θ. */
  val hintDim: Int = 8

  /** The parametric-rule join algorithm code (0 none, 1 BHJ, 2 SHJ, 3 SMJ)
    * implied by the build-side size and the `θp` thresholds — the
    * compile-time stand-in for the physical operator the paper encodes.
    */
  def ruleAlgoCode(isJoin: Boolean, buildMb: Double, p: ThetaP): Int =
    if (!isJoin) 0
    else if (buildMb <= p.broadcastThresholdMb) 1
    else if (buildMb / math.max(1.0, p.shufflePartitions.toDouble) <= p.shuffledHashThresholdMb) 2
    else 3

  /** [[ruleAlgoCode]] for a 19-dim unit configuration. */
  def ruleAlgoCode(isJoin: Boolean, buildMb: Double, unit19: Array[Double]): Int =
    ruleAlgoCode(isJoin, buildMb, thetaPOf(unit19))

  /** Rule hints appended after θ: physical-operator one-hot, spill risk,
    * log total cores, log per-task memory, and log partition count — all
    * deterministic functions of the plan statistics and `θ`, mirroring the
    * physical-plan information the paper's runtime models see (§4.3). Both
    * the trainer and the predictors call this, so train/serve skew is
    * impossible by construction. Writes `hintDim` values at `out(off)`.
    */
  def hintsInto(
      algoCode: Int,
      isScan: Boolean,
      writesShuffle: Boolean,
      inMb: Double,
      c: ThetaC,
      p: ThetaP,
      s: ThetaS,
      out: Array[Double],
      off: Int): Unit = {
    val partitions =
      if (isScan) CostModel.scanPartitions(inMb, p)
      else CostModel.shufflePartitions(inMb, c, p, s)
    java.util.Arrays.fill(out, off, off + 3, 0.0)
    if (algoCode >= 1 && algoCode <= 3) out(off + algoCode - 1) = 1.0
    out(off + 3) = math.log1p(inMb / partitions / c.taskMemoryMb)
    out(off + 4) = math.log(math.max(1.0, c.totalCores.toDouble)) / 6.0
    out(off + 5) = math.log(math.max(1.0, c.taskMemoryMb)) / 12.0
    out(off + 6) = math.log(partitions.toDouble) / 8.0
    out(off + 7) = if (writesShuffle) 1.0 else 0.0
  }

  /** [[hintsInto]] for a 19-dim unit configuration, as a new array. */
  def hints(
      algoCode: Int,
      isScan: Boolean,
      writesShuffle: Boolean,
      inMb: Double,
      unit19: Array[Double]): Array[Double] = {
    val h = new Array[Double](hintDim)
    val cand = Candidate.fromUnit19(unit19)
    hintsInto(algoCode, isScan, writesShuffle, inMb, cand.c.theta, cand.p.theta, cand.s.theta, h, 0)
    h
  }

  /** Whether a subQ writes its output to a shuffle exchange under `θp`: it
    * has a parent, and the parent join is not compiled as a BHJ (broadcast
    * parents consume their children via collect/pipeline instead). Shared
    * by the trainer and predictors.
    */
  def writesShuffle(
      g: QueryGraph,
      subId: Int,
      parentOf: Map[Int, Int],
      parentBuildMb: Int => Double,
      p: ThetaP): Boolean =
    parentOf.get(subId) match {
      case None => false
      case Some(pid) =>
        val parent = g.subQs(pid)
        !(parent.isJoin && ruleAlgoCode(isJoin = true, parentBuildMb(pid), p) == 1)
    }

  /** [[writesShuffle]] for a 19-dim unit configuration. */
  def writesShuffle(
      g: QueryGraph,
      subId: Int,
      parentOf: Map[Int, Int],
      parentBuildMb: Int => Double,
      unit19: Array[Double]): Boolean =
    writesShuffle(g, subId, parentOf, parentBuildMb, thetaPOf(unit19))

  private def thetaPOf(unit19: Array[Double]): ThetaP =
    ThetaP.fromUnit(unit19.slice(SparkParams.dC, SparkParams.dC + SparkParams.dP).toVector)
}

/** Converts model outputs into the MOO objective space (§3.3.2): query
  * latency and cloud cost in USD (CPU-hours + memory-hours + IO).
  */
object Objectives {
  /** Cloud cost of running for `latSec` with `θc` resources moving `ioMb`. */
  def costUsd(spec: ClusterSpec, c: ThetaC, latSec: Double, ioMb: Double): Double = {
    val hours = latSec / 3600.0
    spec.cpuUsdPerCoreHour * c.totalCores * hours +
      spec.memUsdPerGbHour * c.totalMemGb * hours +
      spec.ioUsdPerGb * (ioMb / 1024.0)
  }
}
