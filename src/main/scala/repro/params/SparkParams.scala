package repro.params

/** The 19-parameter mixed Spark tuning space of the paper (Tables 1 and 6).
  *
  * Parameters fall into three categories with different control points in
  * the query lifetime:
  *
  *   - `θc` (context, 8 params `k1..k8`): set once at query submission when
  *     the Spark context is initialized; govern resources and shuffle
  *     machinery for the whole query.
  *   - `θp` (logical-plan, 9 params `s1..s9`): drive the parametric
  *     logical→physical planning rules (join-algorithm thresholds, advisory
  *     partition size, shuffle partitions, skew handling, file splits); one
  *     copy per collapsed logical plan during AQE.
  *   - `θs` (query-stage, 2 params `s10,s11`): drive per-stage partition
  *     rebalance/coalesce rules; one copy per query stage.
  *
  * Each parameter has a bounded numeric domain; configurations are handled
  * both as typed case classes and as normalized `[0,1]^d` vectors for the
  * samplers and the learned models.
  */
object SparkParams {

  /** One tunable parameter with an inclusive numeric domain.
    *
    * @param name     the Spark conf key (documentation; the simulator and
    *                 `ConfApplicator` interpret them)
    * @param lo       domain lower bound
    * @param hi       domain upper bound
    * @param integral whether values are rounded to integers when decoded
    */
  final case class ParamDef(name: String, lo: Double, hi: Double, integral: Boolean) {
    require(hi > lo, s"degenerate domain for $name")

    /** Clamp and (for integral params) round a raw value into the domain. */
    def clamp(v: Double): Double = {
      val c = math.min(hi, math.max(lo, v))
      if (integral) math.round(c).toDouble else c
    }

    /** Map a unit-interval coordinate to a domain value. */
    def fromUnit(u: Double): Double = clamp(lo + (hi - lo) * math.min(1.0, math.max(0.0, u)))

    /** Map a domain value back to its unit-interval coordinate. */
    def toUnit(v: Double): Double = (clamp(v) - lo) / (hi - lo)
  }

  // ---- θc: context parameters (k1..k8) ------------------------------------
  val ExecutorCores: ParamDef     = ParamDef("spark.executor.cores", 1, 8, integral = true)
  val ExecutorMemoryGb: ParamDef  = ParamDef("spark.executor.memory", 2, 32, integral = true)
  val ExecutorInstances: ParamDef = ParamDef("spark.executor.instances", 2, 24, integral = true)
  val DefaultParallelism: ParamDef = ParamDef("spark.default.parallelism", 8, 320, integral = true)
  val MaxSizeInFlightMb: ParamDef = ParamDef("spark.reducer.maxSizeInFlight", 8, 96, integral = true)
  val BypassMergeThreshold: ParamDef =
    ParamDef("spark.shuffle.sort.bypassMergeThreshold", 100, 800, integral = true)
  val ShuffleCompress: ParamDef   = ParamDef("spark.shuffle.compress", 0, 1, integral = true)
  val MemoryFraction: ParamDef    = ParamDef("spark.memory.fraction", 0.5, 0.75, integral = false)

  // ---- θp: logical-plan parameters (s1..s9) --------------------------------
  val AdvisoryPartitionMb: ParamDef =
    ParamDef("spark.sql.adaptive.advisoryPartitionSizeInBytes", 16, 256, integral = true)
  val NonEmptyPartitionRatio: ParamDef =
    ParamDef("spark.sql.adaptive.nonEmptyPartitionRatioForBroadcastJoin", 0.01, 0.5, integral = false)
  val ShuffledHashThresholdMb: ParamDef =
    ParamDef("spark.sql.adaptive.maxShuffledHashJoinLocalMapThreshold", 0, 512, integral = true)
  val BroadcastThresholdMb: ParamDef =
    ParamDef("spark.sql.adaptive.autoBroadcastJoinThreshold", 0, 512, integral = true)
  val ShufflePartitions: ParamDef = ParamDef("spark.sql.shuffle.partitions", 20, 2000, integral = true)
  val SkewedPartitionThresholdMb: ParamDef =
    ParamDef("spark.sql.adaptive.skewJoin.skewedPartitionThresholdInBytes", 64, 1024, integral = true)
  val SkewedPartitionFactor: ParamDef =
    ParamDef("spark.sql.adaptive.skewJoin.skewedPartitionFactor", 2, 10, integral = true)
  val MaxPartitionBytesMb: ParamDef =
    ParamDef("spark.sql.files.maxPartitionBytes", 32, 512, integral = true)
  val OpenCostMb: ParamDef = ParamDef("spark.sql.files.openCostInBytes", 2, 8, integral = true)

  // ---- θs: query-stage parameters (s10, s11) -------------------------------
  val SmallPartitionFactor: ParamDef =
    ParamDef("spark.sql.adaptive.rebalancePartitionsSmallPartitionFactor", 0.1, 0.5, integral = false)
  val MinPartitionSizeMb: ParamDef =
    ParamDef("spark.sql.adaptive.coalescePartitions.minPartitionSize", 1, 64, integral = true)

  val thetaCDefs: Vector[ParamDef] = Vector(
    ExecutorCores, ExecutorMemoryGb, ExecutorInstances, DefaultParallelism,
    MaxSizeInFlightMb, BypassMergeThreshold, ShuffleCompress, MemoryFraction)

  val thetaPDefs: Vector[ParamDef] = Vector(
    AdvisoryPartitionMb, NonEmptyPartitionRatio, ShuffledHashThresholdMb, BroadcastThresholdMb,
    ShufflePartitions, SkewedPartitionThresholdMb, SkewedPartitionFactor, MaxPartitionBytesMb,
    OpenCostMb)

  val thetaSDefs: Vector[ParamDef] = Vector(SmallPartitionFactor, MinPartitionSizeMb)

  val dC: Int = thetaCDefs.size // 8
  val dP: Int = thetaPDefs.size // 9
  val dS: Int = thetaSDefs.size // 2
  val dAll: Int = dC + dP + dS  // 19
}

/** Context parameters `θc` — one copy per query (set at submission time). */
final case class ThetaC(
    execCores: Int,
    execMemoryGb: Int,
    execInstances: Int,
    defaultParallelism: Int,
    maxSizeInFlightMb: Int,
    bypassMergeThreshold: Int,
    shuffleCompress: Boolean,
    memoryFraction: Double) {

  /** Total cores allocated to the query (k1 * k3). */
  def totalCores: Int = execCores * execInstances

  /** Total executor memory in GB (k2 * k3). */
  def totalMemGb: Int = execMemoryGb * execInstances

  /** Per-task execution memory in MB: k2 * k8 / k1. */
  def taskMemoryMb: Double = execMemoryGb * 1024.0 * memoryFraction / execCores

  def toVector: Vector[Double] = Vector(
    execCores.toDouble, execMemoryGb.toDouble, execInstances.toDouble,
    defaultParallelism.toDouble, maxSizeInFlightMb.toDouble, bypassMergeThreshold.toDouble,
    if (shuffleCompress) 1.0 else 0.0, memoryFraction)
}

object ThetaC {
  import SparkParams._

  /** The cluster's out-of-the-box configuration used as the tuning
    * baseline — stock Spark asks for small executors (1g/1-core scale),
    * which on a beefy cluster leaves most resources idle.
    */
  val default: ThetaC = ThetaC(
    execCores = 2, execMemoryGb = 8, execInstances = 6,
    defaultParallelism = 24, maxSizeInFlightMb = 48, bypassMergeThreshold = 200,
    shuffleCompress = true, memoryFraction = 0.6)

  def fromVector(v: IndexedSeq[Double]): ThetaC = {
    require(v.size == dC, s"θc needs $dC values, got ${v.size}")
    ThetaC(
      ExecutorCores.clamp(v(0)).toInt, ExecutorMemoryGb.clamp(v(1)).toInt,
      ExecutorInstances.clamp(v(2)).toInt, DefaultParallelism.clamp(v(3)).toInt,
      MaxSizeInFlightMb.clamp(v(4)).toInt, BypassMergeThreshold.clamp(v(5)).toInt,
      ShuffleCompress.clamp(v(6)) >= 0.5, MemoryFraction.clamp(v(7)))
  }

  def fromUnit(u: IndexedSeq[Double]): ThetaC =
    fromVector(thetaCDefs.zip(u).map { case (d, x) => d.fromUnit(x) })
}

/** Logical-plan parameters `θp` — one copy per collapsed logical plan. */
final case class ThetaP(
    advisoryPartitionMb: Int,
    nonEmptyPartitionRatio: Double,
    shuffledHashThresholdMb: Int,
    broadcastThresholdMb: Int,
    shufflePartitions: Int,
    skewedPartitionThresholdMb: Int,
    skewedPartitionFactor: Int,
    maxPartitionBytesMb: Int,
    openCostMb: Int) {

  def toVector: Vector[Double] = Vector(
    advisoryPartitionMb.toDouble, nonEmptyPartitionRatio, shuffledHashThresholdMb.toDouble,
    broadcastThresholdMb.toDouble, shufflePartitions.toDouble, skewedPartitionThresholdMb.toDouble,
    skewedPartitionFactor.toDouble, maxPartitionBytesMb.toDouble, openCostMb.toDouble)
}

object ThetaP {
  import SparkParams._

  /** Spark's default values (10 MB broadcast, SHJ conversion off, 200 partitions). */
  val default: ThetaP = ThetaP(
    advisoryPartitionMb = 64, nonEmptyPartitionRatio = 0.2,
    shuffledHashThresholdMb = 0, broadcastThresholdMb = 10, shufflePartitions = 200,
    skewedPartitionThresholdMb = 256, skewedPartitionFactor = 5,
    maxPartitionBytesMb = 128, openCostMb = 4)

  def fromVector(v: IndexedSeq[Double]): ThetaP = {
    require(v.size == dP, s"θp needs $dP values, got ${v.size}")
    ThetaP(
      AdvisoryPartitionMb.clamp(v(0)).toInt, NonEmptyPartitionRatio.clamp(v(1)),
      ShuffledHashThresholdMb.clamp(v(2)).toInt, BroadcastThresholdMb.clamp(v(3)).toInt,
      ShufflePartitions.clamp(v(4)).toInt, SkewedPartitionThresholdMb.clamp(v(5)).toInt,
      SkewedPartitionFactor.clamp(v(6)).toInt, MaxPartitionBytesMb.clamp(v(7)).toInt,
      OpenCostMb.clamp(v(8)).toInt)
  }

  def fromUnit(u: IndexedSeq[Double]): ThetaP =
    fromVector(thetaPDefs.zip(u).map { case (d, x) => d.fromUnit(x) })
}

/** Query-stage parameters `θs` — one copy per query stage. */
final case class ThetaS(smallPartitionFactor: Double, minPartitionSizeMb: Int) {
  def toVector: Vector[Double] = Vector(smallPartitionFactor, minPartitionSizeMb.toDouble)
}

object ThetaS {
  import SparkParams._

  val default: ThetaS = ThetaS(smallPartitionFactor = 0.2, minPartitionSizeMb = 1)

  def fromVector(v: IndexedSeq[Double]): ThetaS = {
    require(v.size == dS, s"θs needs $dS values, got ${v.size}")
    ThetaS(SmallPartitionFactor.clamp(v(0)), MinPartitionSizeMb.clamp(v(1)).toInt)
  }

  def fromUnit(u: IndexedSeq[Double]): ThetaS =
    fromVector(thetaSDefs.zip(u).map { case (d, x) => d.fromUnit(x) })
}

/** A full single-copy configuration `(θc, θp, θs)` — what query-level tuners
  * search over, and what the simulator executes a stage with.
  */
final case class Configuration(c: ThetaC, p: ThetaP, s: ThetaS) {
  def toVector: Vector[Double] = c.toVector ++ p.toVector ++ s.toVector
}

object Configuration {
  val default: Configuration = Configuration(ThetaC.default, ThetaP.default, ThetaS.default)

  def fromUnit(u: IndexedSeq[Double]): Configuration = {
    require(u.size == SparkParams.dAll, s"need ${SparkParams.dAll} coords, got ${u.size}")
    Configuration(
      ThetaC.fromUnit(u.slice(0, SparkParams.dC)),
      ThetaP.fromUnit(u.slice(SparkParams.dC, SparkParams.dC + SparkParams.dP)),
      ThetaS.fromUnit(u.slice(SparkParams.dC + SparkParams.dP, SparkParams.dAll)))
  }
}

/** One parameter copy in the two forms model scoring needs: unit
  * coordinates (regressor inputs) and the typed values decoded from them
  * (rule hints, cost). Decoding is the costly part, so solvers build each
  * copy once and score it many times. `theta` is always decoded from
  * `unit` (the constructor is private), so every caller sees the same
  * values for the same coordinates.
  */
final class Copy[T] private (val unit: Array[Double], val theta: T)

object Copy {
  import SparkParams._

  def c(unit: Array[Double]): Copy[ThetaC] = new Copy(unit, ThetaC.fromUnit(unit.toVector))
  def p(unit: Array[Double]): Copy[ThetaP] = new Copy(unit, ThetaP.fromUnit(unit.toVector))
  def s(unit: Array[Double]): Copy[ThetaS] = new Copy(unit, ThetaS.fromUnit(unit.toVector))

  /** Encode a typed copy (e.g. one handed over by AQE) for scoring. */
  def of(p: ThetaP): Copy[ThetaP] = Copy.p(encode(thetaPDefs, p.toVector))
  def of(s: ThetaS): Copy[ThetaS] = Copy.s(encode(thetaSDefs, s.toVector))

  private def encode(defs: Vector[ParamDef], v: Vector[Double]): Array[Double] =
    defs.zip(v).map { case (d, x) => d.toUnit(x) }.toArray
}

/** A full configuration ready for model scoring: one copy per category.
  * Fine-grained solvers share the `c` copy across candidates and the
  * `p`/`s` copies across θc candidates.
  */
final case class Candidate(c: Copy[ThetaC], p: Copy[ThetaP], s: Copy[ThetaS])

object Candidate {
  /** Decode a 19-dim unit configuration. */
  def fromUnit19(u: Array[Double]): Candidate = {
    require(u.length == SparkParams.dAll, s"need ${SparkParams.dAll} coords, got ${u.length}")
    import SparkParams.{dAll, dC, dP}
    Candidate(Copy.c(u.slice(0, dC)), Copy.p(u.slice(dC, dC + dP)), Copy.s(u.slice(dC + dP, dAll)))
  }
}
