package perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("samples beyond a percentile follow the nearest-rank rule") {
    assert(Stats.beyond(100, 0.9) == 10)
    assert(Stats.beyond(116, 0.9) == 11)
    assert(Stats.beyond(22, 0.5) == 11)
    assert(Stats.beyond(10, 0.5) == 5)
  }

  test("median and nearest-rank percentiles") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
    val xs = (1 to 100).map(_.toDouble)
    assert(Stats.percentile(xs, 0.9) == 90.0)
    assert(Stats.percentile(xs, 0.5) == 50.0)
    assert(Stats.percentile(Seq(7.0), 0.99) == 7.0)
  }

  test("a tail percentile needs ten samples beyond it") {
    val xs = (1 to 50).map(_.toDouble).reverse
    assert(Stats.tail(xs, 0.75) == 38.0)
    intercept[IllegalArgumentException](Stats.tail(xs, 0.9))
    assert(Stats.tail((1 to 100).map(_.toDouble), 0.9) == 90.0)
    intercept[IllegalArgumentException](Stats.tail((1 to 99).map(_.toDouble), 0.9))
  }

  test("ref normalisation divides by the mean of the bursts around the call") {
    assert(math.abs(Stats.toRef(0.3, 0.002, 0.004) - 100.0) < 1e-9)
    assert(Stats.toRef(0.0, 0.002, 0.004) == 0.0)
    intercept[IllegalArgumentException](Stats.toRef(1.0, 0.0, 0.0))
    intercept[IllegalArgumentException](Stats.toRef(1.0, Double.PositiveInfinity, 0.001))
  }

  test("a host running uniformly slower leaves ref values unchanged") {
    val calls = Seq((0.010, 0.001, 0.0011), (0.020, 0.0011, 0.0009), (0.015, 0.0009, 0.001))
    calls.foreach { case (t, before, after) =>
      val fast = Stats.toRef(t, before, after)
      val slow = Stats.toRef(t * 1.19, before * 1.19, after * 1.19)
      assert(math.abs(fast - slow) < 1e-9)
    }
  }

  test("the reference kernel records one sample per timed burst") {
    val k = new RefKernel(seed = 3L, sizes = Array(8, 16, 2), reps = 4)
    k.warm(10)
    val med = k.burst(5)
    assert(k.sampleSec.size == 5)
    assert(k.sampleSec.forall(_ > 0))
    assert(med == Stats.median(k.sampleSec))
    k.burst(3)
    assert(k.sampleSec.size == 8)
    assert(k.medianSec == Stats.median(k.sampleSec))
  }
}
