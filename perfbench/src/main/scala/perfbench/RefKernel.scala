package perfbench

import scala.util.Random

/** Fixed reference kernel used to normalise timings against host speed.
  *
  * The forward pass of a 58→128→128→2 perceptron, the shape of the
  * program's models, on row arrays like `Mlp`'s, repeated over preallocated
  * buffers: single-threaded and allocation-free, so garbage left behind by
  * the program under test cannot slow it down. Bursts are timed right before
  * and after each timed call, and their mean is that call's unit `ref`
  * ([[Stats.toRef]]).
  */
final class RefKernel(seed: Long, sizes: Array[Int] = Array(58, 128, 128, 2), reps: Int = 24) {
  private val rnd = new Random(seed)
  private val w: Array[Array[Array[Double]]] =
    Array.tabulate(sizes.length - 1)(l => Array.fill(sizes(l + 1), sizes(l))(rnd.nextGaussian() * 0.1))
  private val acts: Array[Array[Double]] = sizes.map(n => Array.fill(n)(rnd.nextDouble()))
  // Written every repetition so the JIT cannot drop the kernel's work.
  private var sink = 0.0

  private val samples = collection.mutable.ArrayBuffer.empty[Double]

  private def kernel(): Unit = {
    var r = 0
    while (r < reps) {
      var l = 0
      while (l < w.length) {
        val in = acts(l); val out = acts(l + 1); val wl = w(l)
        var o = 0
        while (o < out.length) {
          val row = wl(o)
          var s = 0.0
          var i = 0
          while (i < in.length) { s += row(i) * in(i); i += 1 }
          out(o) = if (s > 0) s else 0.0
          o += 1
        }
        l += 1
      }
      sink += acts(w.length)(0)
      r += 1
    }
  }

  /** Run the kernel untimed until the JIT has compiled it. */
  def warm(bursts: Int = 400): Unit = { var i = 0; while (i < bursts) { kernel(); i += 1 } }

  /** Time `k` bursts, keep their durations and return their median (seconds). */
  def burst(k: Int = 5): Double = {
    val from = samples.size
    var i = 0
    while (i < k) {
      val t0 = System.nanoTime()
      kernel()
      samples += (System.nanoTime() - t0) / 1e9
      i += 1
    }
    Stats.median(samples.view.slice(from, samples.size).toSeq)
  }

  def sampleSec: Vector[Double] = samples.toVector

  /** Median burst time of the run so far (seconds); needs one burst. */
  def medianSec: Double = Stats.median(samples.toSeq)
}
