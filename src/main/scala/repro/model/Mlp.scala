package repro.model

import scala.util.Random

/** Small deterministic multi-layer perceptron regressor (pure Scala).
  *
  * This is the trained "regressor" half of the paper's model (Fig 6): it
  * consumes the concatenation of the plan embedding, non-decision variables
  * and the tunable-parameter vector, and predicts the objective targets
  * (log latency, log IO). Training is mini-batch Adam on MSE; everything is
  * seeded so training is reproducible.
  *
  * @param sizes layer widths, e.g. Array(in, 96, 96, out)
  */
final class Mlp(val sizes: Array[Int], seed: Long) extends Serializable {
  require(sizes.length >= 2, "need at least input and output layers")

  private val rnd = new Random(seed)
  private val nLayers = sizes.length - 1

  // He-initialized weights W(l)(out)(in) and biases b(l)(out).
  private[model] val w: Array[Array[Array[Double]]] = Array.tabulate(nLayers) { l =>
    val scale = math.sqrt(2.0 / sizes(l))
    Array.fill(sizes(l + 1), sizes(l))(rnd.nextGaussian() * scale)
  }
  private[model] val b: Array[Array[Double]] = Array.tabulate(nLayers)(l => Array.fill(sizes(l + 1))(0.0))

  // Adam state.
  private val mW = w.map(_.map(_.map(_ => 0.0)))
  private val vW = w.map(_.map(_.map(_ => 0.0)))
  private val mB = b.map(_.map(_ => 0.0))
  private val vB = b.map(_.map(_ => 0.0))
  private var adamT = 0

  private def relu(x: Double): Double = if (x > 0) x else 0.0

  /** Forward pass; returns activations per layer (index 0 = input). */
  private def forwardAll(x: Array[Double]): Array[Array[Double]] = {
    val acts = new Array[Array[Double]](nLayers + 1)
    acts(0) = x
    var l = 0
    while (l < nLayers) {
      val in = acts(l); val wl = w(l); val bl = b(l)
      val out = new Array[Double](sizes(l + 1))
      var o = 0
      while (o < out.length) {
        var s = bl(o); val row = wl(o)
        var i = 0
        while (i < in.length) { s += row(i) * in(i); i += 1 }
        out(o) = if (l < nLayers - 1) relu(s) else s
        o += 1
      }
      acts(l + 1) = out
      l += 1
    }
    acts
  }

  /** Predict outputs for one input vector with the training-time forward
    * pass. Inference goes through [[freeze]]; this stays as the reference
    * the frozen kernel is tested against, bit for bit.
    */
  def predict(x: Array[Double]): Array[Double] = forwardAll(x).last

  /** A frozen inference copy of the current weights (see [[MlpKernel]]).
    * Later training does not change it.
    */
  def freeze(): MlpKernel = new MlpKernel(w, b)

  /** One Adam step on a mini-batch; returns the batch MSE. */
  private def step(xs: Array[Array[Double]], ys: Array[Array[Double]], lr: Double): Double = {
    val gW = w.map(_.map(_.map(_ => 0.0)))
    val gB = b.map(_.map(_ => 0.0))
    var loss = 0.0
    var n = 0
    while (n < xs.length) {
      val acts = forwardAll(xs(n))
      val out  = acts.last
      var delta = new Array[Double](out.length)
      var o = 0
      while (o < out.length) {
        val d = out(o) - ys(n)(o)
        loss += d * d
        delta(o) = 2.0 * d / out.length
        o += 1
      }
      var l = nLayers - 1
      while (l >= 0) {
        val in = acts(l)
        val gw = gW(l); val gb = gB(l)
        var oo = 0
        while (oo < delta.length) {
          val d = delta(oo)
          gb(oo) += d
          val grow = gw(oo)
          var i = 0
          while (i < in.length) { grow(i) += d * in(i); i += 1 }
          oo += 1
        }
        if (l > 0) {
          val nd = new Array[Double](sizes(l))
          var i = 0
          while (i < nd.length) {
            var s = 0.0
            var o2 = 0
            while (o2 < delta.length) { s += w(l)(o2)(i) * delta(o2); o2 += 1 }
            nd(i) = if (acts(l)(i) > 0) s else 0.0
            i += 1
          }
          delta = nd
        }
        l -= 1
      }
      n += 1
    }
    // Adam update.
    adamT += 1
    val b1 = 0.9; val b2 = 0.999; val eps = 1e-8
    val bc1 = 1.0 - math.pow(b1, adamT)
    val bc2 = 1.0 - math.pow(b2, adamT)
    val inv = 1.0 / xs.length
    var l = 0
    while (l < nLayers) {
      var o = 0
      while (o < sizes(l + 1)) {
        val g0 = gB(l)(o) * inv
        mB(l)(o) = b1 * mB(l)(o) + (1 - b1) * g0
        vB(l)(o) = b2 * vB(l)(o) + (1 - b2) * g0 * g0
        b(l)(o) -= lr * (mB(l)(o) / bc1) / (math.sqrt(vB(l)(o) / bc2) + eps)
        val grow = gW(l)(o); val mrow = mW(l)(o); val vrow = vW(l)(o); val wrow = w(l)(o)
        var i = 0
        while (i < sizes(l)) {
          val g = grow(i) * inv
          mrow(i) = b1 * mrow(i) + (1 - b1) * g
          vrow(i) = b2 * vrow(i) + (1 - b2) * g * g
          wrow(i) -= lr * (mrow(i) / bc1) / (math.sqrt(vrow(i) / bc2) + eps)
          i += 1
        }
        o += 1
      }
      l += 1
    }
    loss / xs.length
  }

  /** Train with mini-batch Adam; returns the final epoch's mean MSE. */
  def train(
      xs: Array[Array[Double]],
      ys: Array[Array[Double]],
      epochs: Int,
      batchSize: Int = 64,
      lr: Double = 1e-3): Double = {
    require(xs.length == ys.length && xs.nonEmpty, "empty or mismatched training set")
    val order = xs.indices.toArray
    var lastLoss = 0.0
    val shuffleRnd = new Random(seed ^ 0x5DEECE66DL)
    for (epoch <- 1 to epochs) {
      // Linear learning-rate decay to a 10% floor.
      val lrNow = lr * (0.1 + 0.9 * (1.0 - (epoch - 1).toDouble / epochs))
      // Fisher–Yates shuffle for deterministic epoch ordering.
      var i = order.length - 1
      while (i > 0) {
        val j = shuffleRnd.nextInt(i + 1)
        val t = order(i); order(i) = order(j); order(j) = t
        i -= 1
      }
      var lossSum = 0.0; var batches = 0
      var start = 0
      while (start < order.length) {
        val end = math.min(order.length, start + batchSize)
        val bx = Array.tabulate(end - start)(k => xs(order(start + k)))
        val by = Array.tabulate(end - start)(k => ys(order(start + k)))
        lossSum += step(bx, by, lrNow)
        batches += 1
        start = end
      }
      lastLoss = lossSum / batches
    }
    lastLoss
  }
}

/** Allocation-free inference copy of an [[Mlp]]'s weights.
  *
  * Weights are stored transposed, one array per *input* unit
  * (`wT(l)(i)(o)`), so a layer is computed as
  * `acc = bias; for i ascending: if (h(i) != 0) acc(o) += wT(i)(o) * h(i)`.
  * The inner loop walks `acc` and `wT(l)(i)` with the same index, which the
  * JIT vectorises. A layer after the first with fewer than 8 outputs (the
  * 2-wide output layer) is too narrow for that loop and keeps the
  * row-per-output layout, as one dot product per output.
  *
  * Results are bit-identical to [[Mlp.predict]]: each output unit adds its
  * terms to the bias in ascending input order, exactly as the training-time
  * pass does (the JVM never contracts `a + b * c` to a fused multiply-add).
  * Skipping an exact-zero input can change only the sign of a zero
  * accumulator, which ReLU and the `exp` of the output mapping both erase.
  *
  * Because the first layer is one running sum per output unit, a caller may
  * accumulate a θ-independent input prefix once ([[accumulate]] from input
  * 0) and finish many forward passes from a copy of it (Fig 6 of the paper:
  * the plan embedding does not depend on θ).
  */
final class MlpKernel private[model] (w: Array[Array[Array[Double]]], b: Array[Array[Double]])
    extends Serializable {

  private val nLayers = w.length
  private val byInput: Array[Boolean] = Array.tabulate(nLayers)(l => l == 0 || w(l).length >= MlpKernel.NarrowWidth)
  // weights(l) is wT(l)(i)(o) when byInput(l), else w(l)(o)(i).
  private val weights: Array[Array[Array[Double]]] = Array.tabulate(nLayers) { l =>
    val wl = w(l)
    if (byInput(l)) Array.tabulate(wl(0).length, wl.length)((i, o) => wl(o)(i)) else wl.map(_.clone)
  }
  private val bias: Array[Array[Double]] = b.map(_.clone)

  /** Input width. */
  val inDim: Int = weights(0).length

  /** Width of the first hidden layer (the accumulator [[accumulate]] fills). */
  val firstWidth: Int = bias(0).length

  /** A first-layer accumulator holding only the bias. */
  def newAccumulator(): Array[Double] = bias(0).clone

  /** Scratch buffers for [[finish]]: one per layer after the first. */
  def newBuffers(): Array[Array[Double]] = {
    val out = new Array[Array[Double]](nLayers - 1)
    var l = 1
    while (l < nLayers) { out(l - 1) = new Array[Double](bias(l).length); l += 1 }
    out
  }

  private def addByInput(wT: Array[Array[Double]], acc: Array[Double], from: Int, x: Array[Double], len: Int): Unit = {
    val n = acc.length
    var j = 0
    while (j < len) {
      val xj = x(j)
      if (xj != 0.0) {
        val row = wT(from + j)
        var o = 0
        while (o < n) { acc(o) += row(o) * xj; o += 1 }
      }
      j += 1
    }
  }

  private def dotByOutput(wl: Array[Array[Double]], bl: Array[Double], out: Array[Double], x: Array[Double]): Unit = {
    var o = 0
    while (o < out.length) {
      val row = wl(o)
      var s = bl(o)
      var i = 0
      while (i < x.length) { val xi = x(i); if (xi != 0.0) s += row(i) * xi; i += 1 }
      out(o) = s
      o += 1
    }
  }

  /** Adds first-layer inputs `from until from + len`, whose values are
    * `x(0 until len)`, to `acc`. Calls must come in ascending input order.
    */
  def accumulate(acc: Array[Double], from: Int, x: Array[Double], len: Int): Unit =
    addByInput(weights(0), acc, from, x, len)

  /** Completes a forward pass from a first-layer accumulator that holds all
    * `inDim` inputs. Overwrites `acc` and `buffers`; returns the array that
    * holds the outputs (the last of `buffers`, or `acc` for a net without
    * hidden layers).
    */
  def finish(acc: Array[Double], buffers: Array[Array[Double]]): Array[Double] = {
    var h = acc
    var l = 1
    while (l < nLayers) {
      relu(h)
      val next = buffers(l - 1)
      if (byInput(l)) {
        System.arraycopy(bias(l), 0, next, 0, next.length)
        addByInput(weights(l), next, 0, h, h.length)
      } else dotByOutput(weights(l), bias(l), next, h)
      h = next
      l += 1
    }
    h
  }

  private def relu(h: Array[Double]): Unit = {
    var o = 0
    while (o < h.length) { if (!(h(o) > 0)) h(o) = 0.0; o += 1 }
  }

  /** Full forward pass of one input vector (allocates its buffers). */
  def predict(x: Array[Double]): Array[Double] = {
    require(x.length == inDim, s"expected $inDim inputs, got ${x.length}")
    val acc = newAccumulator()
    accumulate(acc, 0, x, x.length)
    finish(acc, newBuffers())
  }
}

object MlpKernel {
  // 8 doubles fill one AVX-512 register.
  private val NarrowWidth = 8
}
