package perfbench

import java.nio.file.{Files, Path, Paths}
import scala.util.Try

/** Benchmark entry point.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * Prints host diagnostics, a table of every metric with its unit and
  * sample count, and as the last line one JSON object: with `--trace 0`
  * the end-to-end metrics, with `--trace 1` the per-layer metrics.
  */
object Main {

  /** One reported metric; `rawSec` is the un-normalised seconds of a `ref` timing. */
  final case class Metric(name: String, value: Double, unit: String, n: Int, rawSec: Option[Double] = None)

  private def parse(args: Array[String]): Map[String, String] = {
    require(args.length % 2 == 0, s"expected --key value pairs, got ${args.mkString(" ")}")
    args.grouped(2).map { case Array(k, v) =>
      require(k.startsWith("--"), s"bad option $k"); k.drop(2) -> v
    }.toMap
  }

  /** Average of `f` over the queries of one pass, in name order so the sum is bit-stable. */
  private def avg(pass: Vector[QueryOutcome])(f: QueryOutcome => Double): Double = {
    val qs = pass.sortBy(_.name)
    qs.map(f).sum / qs.size
  }

  def endToEnd(rec: RunRecord): Vector[Metric] = {
    val solves = rec.passes.flatten
    val pass = rec.passes.head
    def p50(name: String, ts: Seq[Timed]) =
      Metric(name, Stats.median(ts.map(_.ref)), "ref", ts.size, Some(Stats.median(ts.map(_.sec))))
    Vector(
      Metric("setup_s", rec.startupSec + Stats.median(rec.train.map(_.sec)) + rec.warmupSec, "s", rec.train.size),
      p50("hmooc3_solve_p50_ref", solves.map(_.h3)),
      p50("mows_solve_p50_ref", solves.map(_.mows)),
      p50("runtime_request_p50_ref", rec.hooks),
      Metric("runtime_request_p90_ref", Stats.tail(rec.hooks.map(_.ref), 0.9), "ref", rec.hooks.size,
        Some(Stats.tail(rec.hooks.map(_.sec), 0.9))),
      Metric("h3_avg_lat_reduction", avg(pass)(q => 1.0 - q.h3Exec.wallSec / q.defExec.wallSec), "fraction", pass.size),
      Metric("h3p_avg_lat_reduction", avg(pass)(q => 1.0 - q.h3pExec.wallSec / q.defExec.wallSec), "fraction", pass.size),
      Metric("h3p_avg_cost_change", avg(pass)(q => q.h3pExec.costUsd / q.defExec.costUsd - 1.0), "fraction", pass.size),
      Metric("mows_avg_lat_reduction", avg(pass)(q => 1.0 - q.mowsExec.wallSec / q.defExec.wallSec), "fraction", pass.size),
      p50("train_p50_ref", rec.train),
      Metric("subq_lat_wmape", rec.report.subQ.latency.wmape, "fraction", 1),
      Metric("qs_lat_wmape", rec.report.qs.latency.wmape, "fraction", 1),
      Metric("lqp_lat_wmape", rec.report.lqp.latency.wmape, "fraction", 1))
  }

  def perLayer(w: Workload, rec: RunRecord, spans: Vector[Span], refMedianSec: Double, spanCostSec: Double): Vector[Metric] = {
    val nq = rec.passes.map(_.size).sum
    val deployments = nq * w.prefs.size * Workload.deployReps
    def med(xs: Seq[Double]) = if (xs.isEmpty) 0.0 else Stats.median(xs)
    def calls(kind: String) = rec.hookCalls.filter(_.kind == kind)
    val collect = rec.traceCollectSec.getOrElse(0.0)
    val timedSpans = spans.count(_.request.contains("#pass"))
    val probe = rec.probes
    def p(name: String, unit: String) = Metric(name, probe(name), unit, nq)
    Vector(
      Metric("model.query_models_build_ms", med(Tracer.durOf(spans, "model.query_models_build")) * 1e3, "ms", nq * 2),
      p("model.subq_objectives_us", "us"),
      p("model.predict_subq_us", "us"),
      p("model.mlp_predict_us", "us"),
      p("model.embed_subq_us", "us"),
      p("model.query_objectives_us", "us"),
      p("model.predict_subq_true_us", "us"),
      p("model.predict_qs_us", "us"),
      Metric("model.fit_s", Stats.median(rec.train.map(_.sec)) - collect, "s", rec.train.size),
      Metric("moo.hmooc3_solve_self_ms", med(Tracer.selfOf(spans, "moo.hmooc3_solve")) * 1e3, "ms", nq),
      p("moo.kmeans_ms", "ms"),
      p("moo.crossover_ms", "ms"),
      p("moo.wun_us", "us"),
      p("moo.skyline_us", "us"),
      p("moo.front_size", "count"),
      Metric("moo.mows_solve_self_ms", med(Tracer.selfOf(spans, "moo.mows_solve")) * 1e3, "ms", nq),
      p("params.lhs_pool_ms", "ms"),
      p("params.theta_from_unit_us", "us"),
      Metric("runtime.lqp_request_ms", med(calls("lqp").map(_.sec)) * 1e3, "ms", calls("lqp").size),
      Metric("runtime.qs_request_ms", med(calls("qs").map(_.sec)) * 1e3, "ms", calls("qs").size),
      Metric("runtime.lqp_requests", calls("lqp").size.toDouble / deployments, "count", deployments),
      Metric("runtime.qs_requests", calls("qs").size.toDouble / deployments, "count", deployments),
      Metric("runtime.changed_ratio",
        rec.hookCalls.count(_.changed).toDouble / math.max(1, rec.hookCalls.size), "fraction", rec.hookCalls.size),
      Metric("runtime.optimizer_build_ms", med(Tracer.durOf(spans, "runtime.optimizer_build")) * 1e3, "ms", nq),
      Metric("runtime.aggregate_us", med(Tracer.durOf(spans, "runtime.aggregate")) * 1e6, "us", nq),
      Metric("cluster.execute_self_ms", med(Tracer.selfOf(spans, "cluster.execute")) * 1e3, "ms", nq),
      p("cluster.run_static_us", "us"),
      Metric("cluster.trace_collect_s", collect, "s", 1),
      Metric("cluster.trace_runs_per_s", w.trainRuns / math.max(1e-9, collect), "1/s", 1),
      Metric("workload.graph_of_us", probe("workload.graph_of_us"), "us", 800),
      Metric("host.ref_kernel_ms", refMedianSec * 1e3, "ms", 1),
      Metric("host.steal_frac", rec.stealFrac, "fraction", 1),
      Metric("host.loadavg", rec.loadAvg, "count", 2),
      Metric("host.gc_ms", rec.gcMs, "ms", 1),
      Metric("harness.spans", spans.size.toDouble, "count", 1),
      Metric("harness.trace_overhead_frac", timedSpans * spanCostSec / rec.timedSec, "fraction", timedSpans))
  }

  /** Seconds one enabled span costs the code it wraps. */
  private def spanCostSec(): Double = {
    val t = new Tracer(true)
    var x = 0L
    val n = 20000
    (1 to 2000).foreach(_ => t.span("harness.cost")(x += 1))
    val t0 = System.nanoTime()
    (1 to n).foreach(_ => t.span("harness.cost")(x += 1))
    (System.nanoTime() - t0) / 1e9 / n
  }

  private def table(ms: Seq[Metric]): Seq[String] =
    f"${"metric"}%-30s ${"value"}%14s ${"unit"}%-9s ${"n"}%5s  raw" +:
      ms.map { m =>
        f"${m.name}%-30s ${m.value}%14.6g ${m.unit}%-9s ${m.n}%5d  ${m.rawSec.fold("")(s => f"$s%.6f s")}"
      }

  private def result(correct: Boolean, ledger: Ledger, ms: Seq[Metric]): String =
    Json.render(Json.obj(
      "correct" -> correct,
      "attempted" -> ledger.attempted,
      "failed" -> ledger.failed,
      "metrics" -> Json.obj(ms.map(m => m.name -> Json.obj("value" -> m.value, "unit" -> m.unit)): _*)))

  /** Read back the metric values of an earlier run's result file. */
  private def readValues(path: Path): Map[String, Double] = Try {
    val text = Files.readString(path)
    "\"([A-Za-z0-9_.]+)\":\\{\"value\":([-0-9.eE]+)".r.findAllMatchIn(text)
      .map(m => m.group(1) -> m.group(2).toDouble).toMap
  }.getOrElse(Map.empty)

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    val w = Workload.byName(opts("workload")).getOrElse(
      throw new IllegalArgumentException(s"unknown workload ${opts("workload")}; have ${Workload.all.map(_.name).mkString(", ")}"))
    val seed = opts("seed").toLong
    val seconds = opts("seconds").toDouble
    val trace = opts("trace") == "1"
    val outDir = Paths.get(opts.getOrElse("out", "perfbench/out"))
    Files.createDirectories(outDir)
    sys.props(s"repro.ws_samples_${w.bench}") = w.wsSamples.toString

    val master = "local[1]"
    val ref = new RefKernel(seed)
    val runner = new Runner(w, seed, seconds, new Tracer(trace), ref, master)
    val rec = runner.run()
    val refMedian = ref.medianSec
    val spans = runner.tracer.spans

    val e2e = endToEnd(rec)
    val layers = if (trace) perLayer(w, rec, spans, refMedian, spanCostSec()) else Vector.empty
    val refSamples = ref.sampleSec
    val refSpread = (Stats.percentile(refSamples, 0.9) - Stats.percentile(refSamples, 0.1)) / refMedian

    println(s"# perfbench workload=${w.name} seed=$seed seconds=$seconds trace=${if (trace) 1 else 0}")
    Host.describe(master).foreach { case (k, v) => println(f"# $k%-14s $v") }
    println(f"# ref kernel     median=${refMedian * 1e3}%.4f ms  p10-p90 spread=${refSpread * 100}%.1f%%  n=${refSamples.size}")
    println(f"# timed phase    ${rec.timedSec}%.2f s, ${rec.passes.size} pass(es) of ${w.queries.size} queries; " +
      f"steal=${rec.stealFrac * 100}%.2f%% loadavg=${rec.loadAvg}%.2f gc=${rec.gcMs}%.0f ms")
    println(f"# set-up         start=${rec.startupSec}%.2f s  train=${rec.train.map(t => f"${t.sec}%.2f").mkString("/")} s  warm-up=${rec.warmupSec}%.2f s")
    println("# end-to-end")
    table(e2e).foreach(l => println("  " + l))

    if (trace) {
      val self = Tracer.selfByLayer(spans)
      val total = self.values.sum
      println("# per-layer self time (traced spans)")
      self.toVector.sortBy(-_._2).foreach { case (layer, s) =>
        println(f"  $layer%-10s ${s}%9.3f s ${s / total * 100}%6.1f%%")
      }
      println("# per-layer metrics")
      table(layers).foreach(l => println("  " + l))
      val untraced = readValues(outDir.resolve(s"${w.name}-trace0.json"))
      if (untraced.nonEmpty) {
        println("# tracing overhead (traced minus untraced, earlier untraced run in this checkout)")
        e2e.filter(_.unit == "ref").foreach { m =>
          untraced.get(m.name).foreach(u => println(f"  ${m.name}%-30s ${m.value - u}%+12.4f ref (${(m.value / u - 1) * 100}%+.1f%%)"))
        }
        val differ = e2e.filter(m => m.unit == "fraction" && untraced.get(m.name).exists(_ != m.value)).map(_.name)
        println(s"# deterministic metrics bit-identical to the untraced run: " +
          (if (differ.isEmpty) "yes" else s"NO (${differ.mkString(", ")})"))
      }
      runner.tracer.write(outDir.resolve(s"${w.name}-spans.jsonl"))
    }

    val ledger = runner.ledger
    ledger.messages.take(20).foreach(msg => println(s"# FAILED $msg"))
    println(s"# operations     attempted=${ledger.attempted} failed=${ledger.failed}")
    val line = result(ledger.failed == 0, ledger, if (trace) layers else e2e)
    Files.writeString(outDir.resolve(s"${w.name}-trace${if (trace) 1 else 0}.json"), line + "\n")
    println(line)
  }
}
