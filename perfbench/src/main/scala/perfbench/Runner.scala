package perfbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.cluster.{ClusterSpec, QueryExec}
import repro.harness.{ExperimentContext, Tuners}
import repro.model.{Models, Trainer}
import repro.moo.{MooResult, Pareto}
import repro.moo.Pareto.Sol
import repro.moo.FineConfig
import repro.runtime.{RuntimeOptimizer, ThetaAggregator}
import repro.workload.{QueryGraph, TraceGen}

/** Per-query outcome of one pass, at the Table 4 speed preference. */
final case class QueryOutcome(
    name: String,
    m: Int,
    h3: Timed,
    mows: Timed,
    h3Front: MooResult,
    mowsFront: MooResult,
    defExec: QueryExec,
    h3Exec: QueryExec,
    h3pExec: QueryExec,
    mowsExec: QueryExec)

/** A timed call in seconds and in `ref` (see [[Stats.toRef]]). */
final case class Timed(sec: Double, ref: Double)

/** Everything one run measured, before it is turned into metrics. */
final case class RunRecord(
    startupSec: Double,
    train: Vector[Timed],
    report: Trainer.ModelReport,
    warmupSec: Double,
    passes: Vector[Vector[QueryOutcome]],
    hooks: Vector[Timed],
    hookCalls: Vector[HookCall],
    timedSec: Double,
    traceCollectSec: Option[Double],
    probes: Map[String, Double],
    stealFrac: Double,
    loadAvg: Double,
    gcMs: Double)

/** Drives one workload through the program's production entry points:
  * train, then per pass and query solve with HMOOC3 and MO-WS, recommend
  * by WUN, and deploy on the simulator (default, HMOOC3, HMOOC3+, MO-WS).
  */
final class Runner(w: Workload, seed: Long, seconds: Double, val tracer: Tracer, val ref: RefKernel, val sparkMaster: String) {

  val ledger = new Ledger
  private val spec = ClusterSpec.default
  private val hookCalls = ArrayBuffer.empty[HookCall]
  private val hookTimes = ArrayBuffer.empty[Timed]
  private val fingerprints = mutable.HashMap.empty[String, Vector[Double]]

  private def now(): Long = System.nanoTime()
  private def secSince(t0: Long): Double = (now() - t0) / 1e9

  /** A fresh context per method and query, so no cached model, solve or
    * sample batch is ever reused across passes.
    */
  private def freshContext(models: Models, report: Trainer.ModelReport): ExperimentContext.BenchContext =
    new ExperimentContext.BenchContext(w.bench, models, report, w.queries, spec)

  /** Record `fp` for `key`; a value that differs from an earlier pass is a problem. */
  private def samePasses(key: String, fp: Vector[Double]): Seq[String] =
    fingerprints.get(key) match {
      case Some(prev) if prev != fp => Seq(s"$key differs from an earlier pass")
      case Some(_) => Nil
      case None => fingerprints(key) = fp; Nil
    }

  /** Run `body` between two reference bursts: its result and its time. */
  private def timed[A](body: => A): (A, Timed) = {
    val r0 = ref.burst()
    val t0 = now()
    val a = body
    val sec = secSince(t0)
    (a, Timed(sec, Stats.toRef(sec, r0, ref.burst())))
  }

  private def train(spark: SparkSession, rep: Int): (Models, Trainer.ModelReport, Timed) = {
    tracer.setRequest(s"train#$rep")
    val ((models, report), t) = timed(tracer.span("model.train")(
      Trainer.train(spark, w.bench, w.trainRuns, epochs = w.epochs)))
    (models, report, t)
  }

  private def reportFp(r: Trainer.ModelReport): Vector[Double] =
    Vector(r.subQ, r.qs, r.lqp).flatMap(t =>
      Vector(t.latency.wmape, t.latency.p50, t.latency.corr, t.io.wmape, t.io.p50, t.io.corr))

  /** One query through every method. Returns None if an operation threw. */
  private def runQuery(g: QueryGraph, pass: String, models: Models, report: Trainer.ModelReport): Option[QueryOutcome] = {
    tracer.setRequest(s"${g.name}#$pass")
    val m = g.numSubQs
    val speed = Workload.speedPref
    val op = s"${g.name}/$pass"

    val h3Ctx = freshContext(models, report)
    val seedN = h3Ctx.noiseSeed(g)
    val defExec = ledger.attempt(s"$op/default") {
      val e = tracer.span("cluster.run_static")(Tuners.runDefault(h3Ctx.sim, g, seedN))
      (e, Checks.exec(e))
    }

    val h3 = ledger.attempt(s"$op/hmooc3") {
      val ((res, pick), t) = timed(tracer.span("moo.hmooc3_solve") {
        tracer.span("model.query_models_build")(h3Ctx.qm(g))
        val r = h3Ctx.hmooc(g)
        (r, tracer.span("moo.wun")(r.recommend(speed)))
      })
      val exec = tracer.span("cluster.execute")(Tuners.runCompileTime(h3Ctx.sim, g, pick.payload, seedN))
      val problems = Checks.front(res, m) ++ Checks.onFront(res, pick) ++ Checks.exec(exec) ++
        samePasses(s"${g.name}/hmooc3", Checks.fingerprint(pick) :+ exec.wallSec)
      ((res, pick, t, exec), problems)
    }

    val mows = ledger.attempt(s"$op/mows") {
      val ctx = freshContext(models, report)
      val ((res, pick), t) = timed(tracer.span("moo.mows_solve") {
        tracer.span("model.query_models_build")(ctx.qm(g))
        val r = ctx.mows(g)
        (r, tracer.span("moo.wun")(r.recommend(speed)))
      })
      val exec = tracer.span("cluster.run_static")(
        Tuners.runQueryLevel(ctx.sim, g, pick.payload.asQueryLevel, seedN))
      val problems = Checks.front(res, m) ++ Checks.onFront(res, pick) ++ Checks.exec(exec) ++
        samePasses(s"${g.name}/mows", Checks.fingerprint(pick) :+ exec.wallSec)
      ((res, pick, t, exec), problems)
    }

    // HMOOC3+: the HMOOC3 front deployed with the runtime optimizer under
    // each preference, repeated so every request is timed several times.
    // Each deployment's requests are normalised by the bursts around it.
    var rA = ref.burst()
    val h3p: Vector[Option[((Double, Double), QueryExec)]] = h3 match {
      case None => Vector(None)
      case Some((res, speedPick, _, _)) => w.prefs.flatMap { pref =>
        Vector.tabulate(Workload.deployReps) { rep =>
          ledger.attempt(s"$op/hmooc3+$pref#$rep") {
            val pick = if (pref == speed) speedPick else tracer.span("moo.wun")(res.recommend(pref))
            val fc = pick.payload
            val (pAgg, sAgg) = tracer.span("runtime.aggregate")(
              (ThetaAggregator.aggregateP(g, fc), ThetaAggregator.aggregateS(g, fc)))
            val opt = tracer.span("runtime.optimizer_build")(
              new RuntimeOptimizer(h3Ctx.qm(g), fc.cU, pref, pInit = pAgg))
            val hooks = new TimedHooks(opt, tracer)
            val exec = tracer.span("cluster.execute")(h3Ctx.sim.execute(
              g, fc.thetaC, h3Ctx.sim.compilePlan(g, _ => pAgg), pAgg, sAgg, Some(hooks), seedN))
            val rB = ref.burst()
            hooks.calls.foreach { c =>
              ledger.record(s"$op/${c.kind}-request",
                if (c.sec >= 0 && !c.sec.isInfinite) Nil else Seq(s"bad hook time ${c.sec}"))
              hookTimes += Timed(c.sec, Stats.toRef(c.sec, rA, rB))
            }
            rA = rB
            hookCalls ++= hooks.calls
            val problems = Checks.config(fc, m) ++ Checks.exec(exec) ++
              samePasses(s"${g.name}/hmooc3+$pref", Checks.fingerprint(pick) ++ Vector(exec.wallSec, exec.costUsd))
            ((pref, exec), problems)
          }
        }
      }
    }

    for {
      d <- defExec
      (h3Res, _, h3T, h3Exec) <- h3
      (mRes, _, mT, mExec) <- mows
      if h3p.forall(_.isDefined)
      speedExec <- h3p.flatten.find(_._1 == speed).map(_._2)
    } yield QueryOutcome(g.name, m, h3T, mT, h3Res, mRes, d, h3Exec, speedExec, mExec)
  }

  private def runPass(qs: Vector[QueryGraph], pass: String, models: Models, report: Trainer.ModelReport): Vector[QueryOutcome] =
    qs.flatMap(g => runQuery(g, pass, models, report))

  def run(): RunRecord = {
    ref.warm()
    val spark = SparkSession.builder()
      .master(sparkMaster)
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val startupSec = Host.uptimeSec()

    val trainings = (1 to Workload.trainReps).map(r => train(spark, r))
    val (models, report, _) = trainings.head
    trainings.zipWithIndex.foreach { case ((_, r, sec), i) =>
      val problems = (if (reportFp(r).forall(x => !x.isNaN && !x.isInfinite)) Nil else Seq("non-finite model metrics")) ++
        (if (reportFp(r) == reportFp(report)) Nil else Seq("training is not reproducible"))
      ledger.record(s"train#${i + 1}", problems)
    }
    val traceCollectSec = if (!tracer.enabled) None else Some {
      timed(tracer.span("cluster.trace_collect")(TraceGen.traces(spark, w.bench, w.trainRuns, 42L).collect()))._2.sec
    }
    // Timed phases run with Spark stopped, so its threads stay quiet.
    spark.stop()

    val w0 = now()
    runPass(w.queries.sortBy(_.name).take(Workload.warmupQueries), "warmup", models, report)
    val warmupSec = secSince(w0)
    hookCalls.clear()
    hookTimes.clear()

    val cpu0 = Host.cpuTimes(); val gc0 = Host.gcMs(); val load0 = Host.loadAvg()
    val t0 = now()
    val passes = ArrayBuffer.empty[Vector[QueryOutcome]]
    while (passes.isEmpty || secSince(t0) < seconds) {
      val order = new Random(seed * 1000003L + passes.size).shuffle(w.queries)
      passes += runPass(order, s"pass${passes.size + 1}", models, report)
    }
    val timedSec = secSince(t0)
    val cpu1 = Host.cpuTimes(); val gc1 = Host.gcMs(); val load1 = Host.loadAvg()

    val probes = if (tracer.enabled) Probes.run(w, models, passes.head, spec) else Map.empty[String, Double]

    RunRecord(
      startupSec = startupSec,
      train = trainings.map(_._3).toVector,
      report = report,
      warmupSec = warmupSec,
      passes = passes.toVector,
      hooks = hookTimes.toVector,
      hookCalls = hookCalls.toVector,
      timedSec = timedSec,
      traceCollectSec = traceCollectSec,
      probes = probes,
      stealFrac = Host.stealFrac(cpu0, cpu1),
      loadAvg = (load0 + load1) / 2,
      gcMs = (gc1 - gc0).toDouble)
  }
}
