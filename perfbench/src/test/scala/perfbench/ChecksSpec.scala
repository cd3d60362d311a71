package perfbench

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.moo.{FineConfig, MooResult, Pareto}
import repro.moo.Pareto.Sol
import repro.params.SparkParams

class ChecksSpec extends AnyFunSuite {

  test("brute-force non-dominance on hand-made fronts") {
    assert(Checks.mutuallyNonDominated(Seq((1.0, 3.0), (2.0, 2.0), (3.0, 1.0))))
    assert(!Checks.mutuallyNonDominated(Seq((1.0, 3.0), (2.0, 2.0), (2.0, 3.0))))
    assert(!Checks.mutuallyNonDominated(Seq((1.0, 1.0), (1.0, 2.0))))
    assert(Checks.mutuallyNonDominated(Seq((1.0, 1.0), (1.0, 1.0))), "equal points do not dominate each other")
    assert(Checks.mutuallyNonDominated(Seq.empty))
    assert(Checks.mutuallyNonDominated(Seq((5.0, 5.0))))
  }

  test("the checker accepts every skyline and agrees with a pairwise definition") {
    (1 to 200).foreach { i =>
      val rnd = new Random(i)
      val pts = Vector.fill(rnd.nextInt(12))((rnd.nextInt(20).toDouble, rnd.nextInt(20).toDouble))
      val sky = Pareto.skyline(pts.map { case (a, b) => Sol(a, b, ()) }).map(s => (s.f1, s.f2))
      assert(Checks.mutuallyNonDominated(sky))
      val expected = !pts.exists(a => pts.exists(b =>
        b._1 <= a._1 && b._2 <= a._2 && (b._1 < a._1 || b._2 < a._2)))
      assert(Checks.mutuallyNonDominated(pts) == expected)
    }
  }

  private def fc(m: Int, x: Double = 0.5): FineConfig =
    FineConfig.uniform(m, Array.fill(SparkParams.dAll)(x))

  test("front checks flag bad objectives, coordinates, copy counts and dominated points") {
    val good = MooResult(Vector(Sol(1.0, 2.0, fc(3)), Sol(2.0, 1.0, fc(3))), 0.0)
    assert(Checks.front(good, 3).isEmpty)
    assert(Checks.front(good, 4).exists(_.contains("copy count")))
    val dominated = MooResult(Vector(Sol(1.0, 1.0, fc(3)), Sol(2.0, 2.0, fc(3))), 0.0)
    assert(Checks.front(dominated, 3).exists(_.contains("non-dominated")))
    val nan = MooResult(Vector(Sol(Double.NaN, 1.0, fc(3))), 0.0)
    assert(Checks.front(nan, 3).exists(_.contains("bad objectives")))
    val negative = MooResult(Vector(Sol(-1.0, 1.0, fc(3))), 0.0)
    assert(Checks.front(negative, 3).exists(_.contains("bad objectives")))
    val outside = MooResult(Vector(Sol(1.0, 1.0, fc(3, 1.5))), 0.0)
    assert(Checks.front(outside, 3).exists(_.contains("outside [0, 1]")))
  }

  test("the WUN pick must be a point of the front") {
    val res = MooResult(Vector(Sol(1.0, 2.0, fc(2)), Sol(2.0, 1.0, fc(2))), 0.0)
    assert(Checks.onFront(res, res.recommend((0.9, 0.1))).isEmpty)
    assert(Checks.onFront(res, Sol(1.5, 1.5, fc(2))).nonEmpty)
  }

  test("the ledger counts attempts and failures, including throws") {
    val l = new Ledger
    l.record("a", Nil)
    l.record("b", Seq("bad"))
    assert(l.attempt("c")((1, Nil)).contains(1))
    assert(l.attempt[Int]("d")(throw new RuntimeException("boom")).isEmpty)
    assert(l.attempted == 4)
    assert(l.failed == 2)
    assert(l.messages.exists(_.startsWith("d: threw")))
  }
}
