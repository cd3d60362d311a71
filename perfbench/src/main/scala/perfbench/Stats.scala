package perfbench

/** Order statistics for timing samples.
  *
  * A timing is reported as its median, and a tail percentile only when at
  * least [[MinBeyond]] samples lie beyond it, together with the sample
  * count, so a tail figure is never read off a handful of points.
  */
object Stats {

  val MinBeyond: Int = 10

  /** Samples strictly beyond percentile `q` of `n` (nearest-rank). */
  def beyond(n: Int, q: Double): Int = n - math.ceil(q * n - 1e-9).toInt

  /** Nearest-rank percentile `q` of a non-empty sample. */
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    val s = xs.sorted
    s(math.min(s.size - 1, math.max(0, math.ceil(q * s.size - 1e-9).toInt - 1)))
  }

  /** Median: the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Percentile `q`, refused when fewer than [[MinBeyond]] samples lie beyond it. */
  def tail(xs: Seq[Double], q: Double): Double = {
    require(beyond(xs.size, q) >= MinBeyond, f"p${q * 100}%.0f needs $MinBeyond samples beyond it; have n=${xs.size}")
    percentile(xs, q)
  }

  /** Host-speed normalisation: `sec` in multiples of the reference kernel's
    * burst time, taken as the mean of the bursts just before and just after
    * the timed call (the unit `ref`).
    */
  def toRef(sec: Double, refBefore: Double, refAfter: Double): Double = {
    val unit = (refBefore + refAfter) / 2
    require(unit > 0 && !unit.isInfinite, s"bad reference time $unit")
    sec / unit
  }
}
