package repro.moo

import scala.util.Random
import repro.model.QueryModels
import repro.params.{Candidate, Copy, Sampling, SparkParams}
import repro.moo.Pareto.Sol

/** The SOTA tuning methods the paper compares against (§6.2–6.3):
  *
  *   - `MooWs` — Weighted Sum [29]: sample the space and arg-min each of
  *     the evenly spaced weight vectors over the raw objectives (MO-WS when
  *     run query-level; also supports the fine-grained space of Def 3.3).
  *   - `MooEvo` — Evolutionary [7]: a compact NSGA-II.
  *   - `MooPf` — Progressive Frontier [40]: extreme points, then repeated
  *     constrained single-objective probes of the largest Pareto gap.
  *   - `SoFw` — single-objective with fixed weights [21, 59, 66]: arg-min of
  *     the *raw* (unnormalized) weighted sum, returning one solution — the
  *     theoretically unsound shortcut the paper argues against (§3.3.2).
  */
object Baselines {

  /** Evaluate query-level objectives for a batch of 19-dim unit samples. */
  private def evalQueryLevel(
      qm: QueryModels, samples: Vector[Array[Double]]): Vector[(Double, Double)] = {
    val cands = samples.map(Candidate.fromUnit19)
    evalFine(qm, samples.size, _ => cands)
  }

  /** Objectives of `n` configurations whose subQ `i` copies are `perSubQ(i)`. */
  private def evalFine(
      qm: QueryModels, n: Int, perSubQ: Int => IndexedSeq[Candidate]): Vector[(Double, Double)] = {
    val lat = new Array[Double](n)
    val cost = new Array[Double](n)
    qm.queryObjectives(perSubQ, lat, cost)
    Vector.tabulate(n)(k => (lat(k), cost(k)))
  }

  /** MO-WS over the query-level space: `nSamples` LHS draws, one raw
    * weighted-sum arg-min per weight pair, Pareto-filtered.
    */
  def mooWs(
      qm: QueryModels,
      nSamples: Int = 10000,
      nWeights: Int = 11,
      seed: Long = 23L): MooResult = {
    val t0 = System.nanoTime()
    val samples = Sampling.latinHypercube(nSamples, SparkParams.dAll, seed)
      .map(u => Sampling.refine(u).toArray)
    val objs = evalQueryLevel(qm, samples)
    val sols = wsArgmins(samples, objs, nWeights).map { case (u, (l, c)) =>
      Sol(l, c, FineConfig.uniform(qm.m, u))
    }
    MooResult(Pareto.skyline(sols), (System.nanoTime() - t0) / 1e9)
  }

  /** MO-WS over the fine-grained space of Def 3.3 (`d_c + m(d_p+d_s)` dims):
    * included to show why global methods collapse under the dimensionality
    * (Expt 6). Sample count intentionally matches the query-level variant.
    */
  def mooWsFine(
      qm: QueryModels,
      nSamples: Int = 10000,
      nWeights: Int = 11,
      seed: Long = 23L): MooResult = {
    val t0 = System.nanoTime()
    val m = qm.m
    val dPs = SparkParams.dP + SparkParams.dS
    val dim = SparkParams.dC + m * dPs
    val samples = Sampling.latinHypercube(nSamples, dim, seed).map(u => Sampling.refine(u).toArray)
    val configs = samples.map { u =>
      val cU = u.slice(0, SparkParams.dC)
      val pU = Vector.tabulate(m)(i => u.slice(SparkParams.dC + i * dPs, SparkParams.dC + i * dPs + SparkParams.dP))
      val sU = Vector.tabulate(m)(i => u.slice(SparkParams.dC + i * dPs + SparkParams.dP, SparkParams.dC + (i + 1) * dPs))
      FineConfig(cU, pU, sU)
    }
    val decoded = configs.map { fc =>
      val c = Copy.c(fc.cU)
      Vector.tabulate(m)(i => Candidate(c, Copy.p(fc.pU(i)), Copy.s(fc.sU(i))))
    }
    val objs = evalFine(qm, configs.size, i => decoded.map(_(i)))
    val sols = wsArgmins(configs, objs, nWeights).map { case (fc, (l, c)) => Sol(l, c, fc) }
    MooResult(Pareto.skyline(sols), (System.nanoTime() - t0) / 1e9)
  }

  /** Per-weight arg-mins over an evaluated batch, on the *raw* objectives —
    * classic Weighted Sum [29]. Because raw latency and cost live on
    * different scales, most weight vectors collapse onto the same few
    * points (the poor front coverage of Fig 4).
    */
  private def wsArgmins[T](
      payloads: Vector[T],
      objs: Vector[(Double, Double)],
      nWeights: Int): Vector[(T, (Double, Double))] =
    Sampling.weightPairs(nWeights).map { case (wl, wc) =>
      val idx = objs.indices.minBy(i => wl * objs(i)._1 + wc * objs(i)._2)
      (payloads(idx), objs(idx))
    }.distinctBy(p => p._2)

  /** Compact NSGA-II over the query-level space (population `popSize`,
    * `evalBudget` model evaluations total).
    */
  def mooEvo(
      qm: QueryModels,
      popSize: Int = 100,
      evalBudget: Int = 500,
      seed: Long = 31L): MooResult = {
    val t0 = System.nanoTime()
    val rnd = new Random(seed)
    val dim = SparkParams.dAll

    var pop = Sampling.latinHypercube(popSize, dim, seed).map(u => Sampling.refine(u).toArray)
    var objs = evalQueryLevel(qm, pop)
    var evals = popSize

    // Fast non-dominated ranks + crowding for selection.
    def ranks(os: Vector[(Double, Double)]): Vector[Int] = {
      val n = os.size
      val r = Array.fill(n)(0)
      for (i <- 0 until n; j <- 0 until n; if i != j)
        if (Pareto.dominates(os(j), os(i))) r(i) += 1
      r.toVector
    }

    while (evals < evalBudget) {
      val rk = ranks(objs)
      def tournament(): Array[Double] = {
        val a = rnd.nextInt(pop.size); val b = rnd.nextInt(pop.size)
        if (rk(a) <= rk(b)) pop(a) else pop(b)
      }
      val nChildren = math.min(popSize, evalBudget - evals)
      val children = Vector.fill(nChildren) {
        val p1 = tournament(); val p2 = tournament()
        val child = Array.tabulate(dim)(d => if (rnd.nextBoolean()) p1(d) else p2(d))
        // Polynomial-ish mutation: small Gaussian nudges.
        for (d <- 0 until dim if rnd.nextDouble() < 2.0 / dim)
          child(d) = math.min(1.0, math.max(0.0, child(d) + rnd.nextGaussian() * 0.1))
        child
      }
      val childObjs = evalQueryLevel(qm, children)
      evals += nChildren
      // Environmental selection: keep the best `popSize` by rank.
      val allPop = pop ++ children
      val allObjs = objs ++ childObjs
      val rkAll = ranks(allObjs)
      val keep = allPop.indices.sortBy(rkAll).take(popSize).toVector
      pop = keep.map(allPop)
      objs = keep.map(allObjs)
    }

    val sols = pop.indices.toVector.map(i => Sol(objs(i)._1, objs(i)._2, FineConfig.uniform(qm.m, pop(i))))
    MooResult(Pareto.skyline(sols), (System.nanoTime() - t0) / 1e9)
  }

  /** Progressive Frontier [40] over the query-level space: find the two
    * extreme points, then repeatedly probe the middle of the widest gap
    * with a constrained single-objective solve (each probe draws its own
    * sample batch, as PF solves one optimization per middle point).
    */
  def mooPf(
      qm: QueryModels,
      nProbeSamples: Int = 2000,
      maxProbes: Int = 12,
      seed: Long = 41L): MooResult = {
    val t0 = System.nanoTime()

    def probe(probeSeed: Long, constraint: ((Double, Double)) => Boolean, objective: ((Double, Double)) => Double)
        : Option[Sol[FineConfig]] = {
      val samples = Sampling.latinHypercube(nProbeSamples, SparkParams.dAll, probeSeed)
        .map(u => Sampling.refine(u).toArray)
      val objs = evalQueryLevel(qm, samples)
      val feasible = objs.indices.filter(i => constraint(objs(i)))
      if (feasible.isEmpty) None
      else {
        val best = feasible.minBy(i => objective(objs(i)))
        Some(Sol(objs(best)._1, objs(best)._2, FineConfig.uniform(qm.m, samples(best))))
      }
    }

    // Extreme points: unconstrained min-latency and min-cost solves.
    var front = Vector(
      probe(seed, _ => true, _._1),
      probe(seed + 1, _ => true, _._2)).flatten

    var k = 0
    while (k < maxProbes && front.nonEmpty) {
      val sorted = Pareto.skyline(front)
      if (sorted.size < 2) k = maxProbes
      else {
        // Widest gap in (normalized) objective space.
        val l0 = sorted.map(_.f1).min; val lr = math.max(1e-12, sorted.map(_.f1).max - l0)
        val c0 = sorted.map(_.f2).min; val cr = math.max(1e-12, sorted.map(_.f2).max - c0)
        val gaps = sorted.sliding(2).toVector
        val widest = gaps.maxBy { case Vector(a, b) =>
          math.abs(a.f1 - b.f1) / lr * math.abs(a.f2 - b.f2) / cr
        }
        val midCost = (widest(0).f2 + widest(1).f2) / 2
        probe(seed + 2 + k, o => o._2 <= midCost, _._1) match {
          case Some(p) if !front.exists(f => f.f1 == p.f1 && f.f2 == p.f2) => front :+= p
          case _ => ()
        }
      }
      k += 1
    }
    MooResult(Pareto.skyline(front), (System.nanoTime() - t0) / 1e9)
  }

  /** SO-FW: single-objective with fixed weights over the *raw* objectives —
    * returns exactly one configuration. Because latency (seconds) and cost
    * (dollars) live on very different scales, the arg-min barely moves as
    * the weights change (Fig 4's 10-of-11-identical pathology).
    */
  def soFw(
      qm: QueryModels,
      w: (Double, Double),
      nSamples: Int = 10000,
      seed: Long = 23L): MooResult = {
    val (sols, t) = soFwBatch(qm, Vector(w), nSamples, seed)
    MooResult(Vector(sols(w)), t)
  }

  /** MO-WS and SO-FW over one shared evaluated batch — both draw the same
    * LHS samples with the same seed, so sharing the (expensive) model
    * evaluations changes nothing about either method's output. Returns the
    * MO-WS result (solve time = the shared evaluation + arg-mins) and the
    * SO-FW pick per preference vector.
    */
  def wsAndSoFw(
      qm: QueryModels,
      prefs: Vector[(Double, Double)],
      nSamples: Int = 10000,
      nWeights: Int = 11,
      seed: Long = 23L): (MooResult, Map[(Double, Double), Sol[FineConfig]]) = {
    val t0 = System.nanoTime()
    val samples = Sampling.latinHypercube(nSamples, SparkParams.dAll, seed)
      .map(u => Sampling.refine(u).toArray)
    val objs = evalQueryLevel(qm, samples)
    val sols = wsArgmins(samples, objs, nWeights).map { case (u, (l, c)) =>
      Sol(l, c, FineConfig.uniform(qm.m, u))
    }
    val mows = MooResult(Pareto.skyline(sols), (System.nanoTime() - t0) / 1e9)
    val soFw = prefs.map { w =>
      val idx = objs.indices.minBy(i => w._1 * objs(i)._1 + w._2 * objs(i)._2)
      w -> Sol(objs(idx)._1, objs(idx)._2, FineConfig.uniform(qm.m, samples(idx)))
    }.toMap
    (mows, soFw)
  }

  /** SO-FW for several preference vectors over one shared sample batch
    * (each preference is still an independent raw-weighted arg-min; sharing
    * the batch only avoids recomputing identical model evaluations).
    */
  def soFwBatch(
      qm: QueryModels,
      ws: Vector[(Double, Double)],
      nSamples: Int = 10000,
      seed: Long = 23L): (Map[(Double, Double), Sol[FineConfig]], Double) = {
    val t0 = System.nanoTime()
    val samples = Sampling.latinHypercube(nSamples, SparkParams.dAll, seed)
      .map(u => Sampling.refine(u).toArray)
    val objs = evalQueryLevel(qm, samples)
    val sols = ws.map { w =>
      val idx = objs.indices.minBy(i => w._1 * objs(i)._1 + w._2 * objs(i)._2)
      w -> Sol(objs(idx)._1, objs(idx)._2, FineConfig.uniform(qm.m, samples(idx)))
    }.toMap
    (sols, (System.nanoTime() - t0) / 1e9)
  }
}
