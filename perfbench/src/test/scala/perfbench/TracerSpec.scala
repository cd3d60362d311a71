package perfbench

import org.scalatest.funsuite.AnyFunSuite

class TracerSpec extends AnyFunSuite {

  test("self time is a span's duration minus its direct children") {
    val spans = Vector(
      Span(0, "moo.solve", 0L, 100L, -1, "q#1"),
      Span(1, "model.build", 10L, 40L, 0, "q#1"),
      Span(2, "model.predict", 50L, 60L, 0, "q#1"),
      Span(3, "params.unit", 52L, 55L, 2, "q#1"))
    val self = Tracer.selfNs(spans)
    assert(self == Map(0 -> 60L, 1 -> 30L, 2 -> 7L, 3 -> 3L))
    val byLayer = Tracer.selfByLayer(spans)
    assert(byLayer.keySet == Set("moo", "model", "params"))
    Map("moo" -> 60e-9, "model" -> 37e-9, "params" -> 3e-9).foreach { case (k, v) =>
      assert(math.abs(byLayer(k) - v) < 1e-15)
    }
  }

  test("nested spans record their parent and request; a disabled tracer records nothing") {
    val t = new Tracer(true)
    t.setRequest("Q1#pass1")
    val v = t.span("moo.outer")(t.span("model.inner")(41) + 1)
    assert(v == 42)
    val Vector(outer, inner) = t.spans
    assert(outer.name == "moo.outer" && outer.parent == -1)
    assert(inner.parent == outer.id && inner.request == "Q1#pass1")
    assert(inner.startNs >= outer.startNs && inner.endNs <= outer.endNs)

    val off = new Tracer(false)
    assert(off.span("x")(7) == 7)
    assert(off.spans.isEmpty)
  }

  test("a span closes even when its body throws") {
    val t = new Tracer(true)
    intercept[IllegalStateException](t.span("moo.bad")(throw new IllegalStateException("x")))
    assert(t.span("moo.next")(1) == 1)
    assert(t.spans.map(s => (s.name, s.parent)) == Vector(("moo.bad", -1), ("moo.next", -1)))
  }

  test("JSON output keeps every digit and escapes strings") {
    assert(Json.render(Json.obj("a" -> 0.1234567890123, "b" -> "x\"y", "c" -> true)) ==
      "{\"a\":0.1234567890123,\"b\":\"x\\\"y\",\"c\":true}")
    assert(Json.render(1.0e-7) == "1.0e-7")
  }
}
