package perfbench

import repro.harness.Calibration
import repro.moo.Hmooc
import repro.workload.{QueryGraph, TpcdsLite, TpchLite}

/** One benchmark workload: which models are trained at which budget, and
  * which queries are tuned and deployed under which preferences. The query
  * sets are fixed; the run's seed only permutes their order in each pass
  * and fills the reference kernel's data, so the deterministic quality
  * figures are the same for every seed.
  */
final case class Workload(
    name: String,
    bench: String,
    queries: Vector[QueryGraph],
    trainRuns: Int,
    epochs: Int,
    wsSamples: Int,
    prefs: Vector[(Double, Double)]) {
  require(prefs.contains(Workload.speedPref), "the Table 4 speed preference must be deployed")
}

object Workload {

  val speedPref: (Double, Double) = Calibration.speedPref

  /** Trainings per run; their median is the set-up and training figure. */
  val trainReps: Int = 5

  /** Deployments per (query, preference) with the runtime optimizer. */
  val deployReps: Int = 3

  /** Queries in the untimed warm-up pass (the first ones by name order). */
  val warmupQueries: Int = 3

  /** `k` queries spread evenly over `qs` sorted by plan size. */
  def stratified(qs: Vector[QueryGraph], k: Int): Vector[QueryGraph] = {
    val s = qs.sortBy(g => (g.numSubQs, g.name))
    Vector.tabulate(math.min(k, s.size))(i => s(((i + 0.5) * s.size / k).toInt))
  }

  /** The candidate budget `ExperimentContext.BenchContext.hmooc` picks for
    * `g`; used only to replay Hmooc's internal steps in the traced run.
    */
  def hmoocSettings(g: QueryGraph): Hmooc.Settings =
    if (g.numSubQs > 16) Hmooc.Settings(nInitC = 56, nClusters = 10, nPool = 128, nEnrich = 28)
    else Hmooc.Settings()

  val all: Vector[Workload] = Vector(
    // Table 4 on TPC-H: small plans on the default HMOOC settings.
    Workload("tpch-tune", "tpch", TpchLite.queries,
      trainRuns = 400, epochs = 4, wsSamples = 1000, prefs = Vector(speedPref)),
    // Table 4 on the large TPC-DS plans (m > 16, the lean-settings path).
    Workload("tpcds-large", "tpcds", stratified(TpcdsLite.queries.filter(_.numSubQs > 16), 16),
      trainRuns = 300, epochs = 4, wsSamples = 500, prefs = Vector(speedPref)),
    // Training-heavy: a larger TPC-DS trace budget, then Table 5's
    // preference sweep over mid-sized TPC-DS plans.
    Workload("tpcds-train", "tpcds", stratified(TpcdsLite.queries.filter(_.numSubQs <= 16), 12),
      trainRuns = 350, epochs = 4, wsSamples = 500, prefs = Calibration.table5Prefs))

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
