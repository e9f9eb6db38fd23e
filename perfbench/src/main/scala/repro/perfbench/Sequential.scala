package repro.perfbench

import repro.core.{FreeBS, FreeRS, UserCardinalitySketch}
import repro.data.{EdgeStream, GraphStream, Profile}
import repro.eval.{Experiments, Metrics}

/** Table II at its defaults (Δ = 5·10⁻⁵, M = 5·10⁶ bits, m = 24, five
  * methods, scoring included) on five of the six 1/100 replicas. The
  * Twitter replica is left out: its 19 M edges alone take ~37 s, past one
  * run's budget. Replicas come from `Experiments.dataset` with the
  * workload seed, as `Experiments.tableII` makes them.
  */
object TableIIWorkload {
  val Replicas: Seq[Profile] = Profile.all.filterNot(_ == Profile.twitter)
  val Methods = 5

  def apply(run: Run, seed: Long): Unit = {
    val datasets = Bench.setUp(run) {
      Replicas.map(p => run.span("GraphStream.generate")(Experiments.dataset(p, seed = seed)))
    }
    val streams = datasets.map(_.stream)
    val edges = streams.map(_.length.toLong).sum
    val heapBefore = Heap.liveMb()

    val timed = datasets.map { ds =>
      run.timed("Experiments.tableIIFor")(Experiments.tableIIFor(ds, seed = seed + 94))
    }
    val rows = timed.flatMap(_._1)
    val wall = timed.map(_._2).sum
    run.endToEnd("wall_s", wall, "s")
    run.endToEnd("edges_per_s", Methods * edges / wall, "1/s")
    // `tableIIFor` has no fixed-size steps inside it, and one replica
    // (Orkut) holds most edges, so a median over replicas is that one
    // replica's time. Report the cost per edge and method over the table.
    run.endToEnd("update_ns_p50", wall * 1e9 / (Methods * edges), "ns")
    run.detail("replica_s", Replicas.map(_.name).zip(timed.map(_._2)).toMap)

    // Shape claims of TableIIBench, on the five replicas.
    run.check(rows.size == Replicas.size * Methods, s"Table II has ${rows.size} rows")
    rows.foreach { r =>
      run.check(r.fnr >= 0 && r.fnr <= 1 && r.fpr >= 0 && r.fpr <= 1,
        s"${r.dataset}/${r.method}: FNR ${r.fnr} FPR ${r.fpr} outside [0, 1]")
    }
    val naOn = rows.filter(r => r.method == "CSE" && r.na).map(_.dataset).toSet
    run.check(naOn == Set(Profile.orkut.name), s"CSE N/A on $naOn, expected only Orkut")
    Replicas.foreach { p =>
      val here = rows.filter(_.dataset == p.name)
      val (free, base) = here.partition(_.method.startsWith("Free"))
      val applicable = base.filterNot(_.na)
      run.check(free.map(_.fnr).min <= applicable.map(_.fnr).min, s"${p.name}: best Free* FNR above best baseline")
      run.check(free.map(_.fpr).min <= applicable.map(_.fpr).min, s"${p.name}: best Free* FPR above best baseline")
    }
    run.detail("table_ii", Experiments.renderTableII(rows))
    run.detail("digest.table_ii", Digest.ofString(Experiments.renderTableII(rows)))

    // The table's own FreeBS/FreeRS, rebuilt outside the timed path to
    // read their per-user estimates: RSE, digests, health.
    val sketches = datasets.map { ds =>
      val st = ds.stream
      val Seq(bs: FreeBS, rs: FreeRS) =
        Experiments.tableIISketches(Experiments.DefaultMBits, Experiments.DefaultVirtualM,
          st.userCount, seed + 94).take(2)
      Seq(bs, rs).foreach(sk => feed(run, sk, st))
      (bs, rs)
    }
    val bsEst = streams.zip(sketches).map { case (st, (bs, _)) => Layers.snapshot(st.userCount, bs.estimate) }
    val rsEst = streams.zip(sketches).map { case (st, (_, rs)) => Layers.snapshot(st.userCount, rs.estimate) }
    val truth = streams.flatMap(_.truth).toArray
    run.endToEnd("rse_freebs", Stats.rse(truth, bsEst.flatten.toArray), "ratio")
    run.endToEnd("rse_freers", Stats.rse(truth, rsEst.flatten.toArray), "ratio")
    run.detail("digest.freebs", Digest.ofDoubles(bsEst.flatten.toArray))
    run.detail("digest.freers", Digest.ofDoubles(rsEst.flatten.toArray))
    run.endToEnd("live_heap_mb", Heap.liveMb() - heapBefore, "MB")

    val ssMs = streams.zip(bsEst).map { case (st, est) =>
      run.timed("Metrics.superSpreader") {
        Metrics.superSpreader(st.truth, u => est(u.toInt), Experiments.Delta * st.totalCardinality)
      }._2 * 1e3
    }
    run.layer("Metrics.superSpreader.ms", Stats.median(ssMs), "ms")
    val largest = streams.indices.maxBy(streams(_).length)
    Bench.health(run, sketches(largest)._1, sketches(largest)._2, streams(largest).userCount)
    run.detail("health_replica", Replicas(largest).name)

    if (run.traced) {
      Layers.replay(run, streams,
        Layers.Config(Experiments.DefaultMBits, (Experiments.DefaultMBits / 5).toInt, seed + 94, seed + 95))
      run.layer("SlicedFree.slice_skew", Layers.sliceSkew(streams, Experiments.DefaultMBits, seed + 94, 64), "ratio")
      Bench.sparkIdle(run)
    }
  }

  private def feed(run: Run, sk: UserCardinalitySketch, st: EdgeStream): Unit =
    run.span(s"${sk.name}.update") {
      var i = 0
      while (i < st.length) { sk.update(st.users(i), st.items(i)); i += 1 }
    }
}

/** FreeBS with the paper's M = 5·10⁸ bits and FreeRS with 10⁸ 5-bit
  * registers over the chicago profile at full scale (σ = 1): 1.97 M users,
  * 9.9 M distinct pairs, 12.9 M edges. At 25/50/75/100 % of the stream the
  * workload reads every user's estimate and runs the Δ super-spreader
  * query, so snapshot reads sit between the updates.
  */
object AnytimeWorkload {
  val MBits = 500_000_000L
  val Registers = 100_000_000
  /** Edges per timed chunk of updates. */
  val Chunk = 1 << 16
  val Checkpoints = Seq(0.25, 0.5, 0.75, 1.0)

  /** The stream plus its exact state at each checkpoint. */
  final case class Input(stream: EdgeStream, ends: Seq[Int], distinct: Seq[Long], truthAt: Seq[Array[Int]])

  /** Exact distinct pairs and per-user cardinalities at each checkpoint.
    * Items are unique per pair ((user << 32) | j, j < truth(user)), so a
    * pair's rank among all pairs is offset(user) + j.
    */
  def exactAtCheckpoints(st: EdgeStream, ends: Seq[Int]): (Seq[Long], Seq[Array[Int]]) = {
    val offset = st.truth.scanLeft(0L)(_ + _)
    val seen = new java.util.BitSet(offset.last.toInt)
    val count = new Array[Int](st.userCount)
    var distinct = 0L
    var i = 0
    ends.map { end =>
      while (i < end) {
        val u = st.users(i).toInt
        val pair = (offset(u) + (st.items(i) & 0xffffffffL)).toInt
        if (!seen.get(pair)) { seen.set(pair); count(u) += 1; distinct += 1 }
        i += 1
      }
      (distinct, count.clone())
    }.unzip
  }

  def apply(run: Run, seed: Long): Unit = {
    val st = Bench.setUp(run) {
      run.span("GraphStream.generate")(GraphStream.generate(Profile.chicago, Experiments.DefaultDup, seed))
    }
    val ends = Checkpoints.map(f => math.round(st.length * f).toInt)
    val (distinct, truthAt) = exactAtCheckpoints(st, ends)
    val in = Input(st, ends, distinct, truthAt)
    run.detail("stream", Map("users" -> st.userCount, "edges" -> st.length, "distinct" -> st.totalCardinality))
    val heapBefore = Heap.liveMb()

    val bs = new FreeBS(MBits, Bench.BsSeed)
    val rs = new FreeRS(Registers, Experiments.RegisterWidth, Bench.RsSeed)
    val t0 = System.nanoTime()
    val bsPass = pass(run, in, bs, bs.estimatedTotal, Bench.bsTotalSd(_, MBits.toDouble))
    val rsPass = pass(run, in, rs, rs.estimatedTotal, Bench.rsTotalSd(_, Registers.toDouble))
    val wall = (System.nanoTime() - t0) / 1e9
    run.endToEnd("wall_s", wall, "s")
    run.endToEnd("edges_per_s", 2.0 * st.length / wall, "1/s")
    // The two sketches' chunk costs form two clusters; average their
    // medians rather than take the median of the pooled chunks.
    run.endToEnd("update_ns_p50", (Stats.median(bsPass.chunkNs) + Stats.median(rsPass.chunkNs)) / 2, "ns")
    run.detail("update_ns.FreeBS", Stats.timing(bsPass.chunkNs))
    run.detail("update_ns.FreeRS", Stats.timing(rsPass.chunkNs))
    run.detail("snapshot_ms", Stats.timing(bsPass.snapshotMs ++ rsPass.snapshotMs))
    run.detail("checkpoints", Checkpoints.indices.map { c =>
      Map("fraction" -> Checkpoints(c), "edges" -> in.ends(c), "exact_distinct" -> in.distinct(c),
        "FreeBS" -> bsPass.health(c), "FreeRS" -> rsPass.health(c))
    })
    run.endToEnd("rse_freebs", Stats.rse(st.truth, bsPass.finalEst), "ratio")
    run.endToEnd("rse_freers", Stats.rse(st.truth, rsPass.finalEst), "ratio")
    run.detail("digest.freebs", Digest.ofDoubles(bsPass.finalEst))
    run.detail("digest.freers", Digest.ofDoubles(rsPass.finalEst))
    run.endToEnd("live_heap_mb", Heap.liveMb() - heapBefore, "MB")
    run.layer("Metrics.superSpreader.ms", Stats.median(bsPass.queryMs ++ rsPass.queryMs), "ms")
    Bench.health(run, bs, rs, st.userCount)

    if (run.traced) {
      Layers.replay(run, Seq(st), Layers.Config(MBits, Registers, Bench.BsSeed, Bench.RsSeed),
        Some(Layers.SketchCosts(bsPass.updateNs / st.length, rsPass.updateNs / st.length,
          Stats.median(bsPass.snapshotMs) * 1e6 / st.userCount)))
      run.layer("SlicedFree.slice_skew", Layers.sliceSkew(Seq(st), MBits, Bench.BsSeed, 64), "ratio")
      Bench.sparkIdle(run)
    }
  }

  final case class Pass(chunkNs: Seq[Double], updateNs: Double, snapshotMs: Seq[Double],
                        queryMs: Seq[Double], health: Seq[Map[String, Any]], finalEst: Array[Double])

  /** Feeds the whole stream into `sk` in timed chunks; at each checkpoint
    * reads every user's estimate, runs the Δ query and checks the
    * estimated total against the exact distinct count.
    */
  private def pass(run: Run, in: Input, sk: UserCardinalitySketch, total: => Double,
                   sd: Double => Double): Pass = {
    val st = in.stream
    val chunkNs = Vector.newBuilder[Double]
    val snapMs, queryMs = Vector.newBuilder[Double]
    val health = Vector.newBuilder[Map[String, Any]]
    var updateNs = 0L
    var est: Array[Double] = null
    var i = 0
    in.ends.indices.foreach { c =>
      while (i < in.ends(c)) {
        val end = math.min(i + Chunk, in.ends(c))
        val n = end - i
        val t0 = System.nanoTime()
        run.span(s"${sk.name}.update") {
          while (i < end) { sk.update(st.users(i), st.items(i)); i += 1 }
        }
        val dt = System.nanoTime() - t0
        updateNs += dt
        chunkNs += dt.toDouble / n
      }
      val (snap, s) = run.timed(s"${sk.name}.snapshot")(Layers.snapshot(st.userCount, sk.estimate))
      est = snap
      snapMs += s * 1e3
      val threshold = Experiments.Delta * total
      val ((fnr, fpr, trueSp), querySec) = run.timed("Metrics.superSpreader") {
        Metrics.superSpreader(in.truthAt(c), u => snap(u.toInt), threshold)
      }
      queryMs += querySec * 1e3
      Bench.checkSnapshot(run, s"${sk.name} at ${Checkpoints(c)}", snap)
      Bench.checkTotal(run, s"${sk.name} at ${Checkpoints(c)}", total, in.distinct(c).toDouble,
        sd(in.distinct(c).toDouble))
      val (q, fill) = sk match {
        case b: FreeBS => (b.q, b.bits.ones.toDouble / b.m)
        case r: FreeRS => (r.q, 1.0 - r.registers.zeros.toDouble / r.m)
      }
      health += Map("q" -> q, "fill_fraction" -> fill, "estimated_total" -> total,
        "headroom" -> (sk match { case b: FreeBS => b.m * math.log(b.m.toDouble) - total; case _ => null }),
        "tracked_users" -> snap.count(_ > 0), "fnr" -> fnr, "fpr" -> fpr, "true_spreaders" -> trueSp)
    }
    Pass(chunkNs.result(), updateNs.toDouble, snapMs.result(), queryMs.result(), health.result(), est)
  }
}
