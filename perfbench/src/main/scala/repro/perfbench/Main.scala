package repro.perfbench

import java.io.{File, PrintWriter}

/** Benchmark entry point: runs one workload and prints its result.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --work <dir>
  * }}}
  *
  * Standard output ends with one JSON line: `correct`, `attempted`,
  * `failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
  * traced). The line before it is the run's report: digests, health,
  * sample counts and the metrics not gated on. It is also written to
  * `<work>/../report-<workload>.json`.
  */
object Main {

  val EndToEnd = Seq("setup_s", "wall_s", "edges_per_s", "update_ns_p50", "rse_freebs",
    "rse_freers", "live_heap_mb")

  val PerLayer: Seq[String] = Seq("wall_s.traced", "trace.spans", "trace.overhead_ms",
    "GraphStream.generate.s", "Hashing.pairIndex.ns", "Hashing.pairRank.ns", "BitArray.set.ns",
    "BitArray.flip_ratio", "RegisterArray.update.ns", "RegisterArray.grow_ratio",
    "FreeBS.update.ns", "FreeRS.update.ns", "FreeBS.counter_self.ns", "FreeRS.counter_self.ns",
    "FreeBS.estimate.ns", "Cse.update.ns", "Vhll.update.ns", "HllPlusPlus.update.ns",
    "Metrics.superSpreader.ms", "SlicedFree.slice_skew", "FreeBS.q", "FreeBS.fill_fraction",
    "FreeBS.headroom", "FreeRS.q", "FreeRS.saturated_registers", "tracked_users") ++
    (SparkMetrics.StageMetrics ++ SparkMetrics.StreamingMetrics).map(_._1)

  val Workloads = Seq("tableII", "anytime-paper-scale", "spark")

  /** The seed EXPERIMENTS.md uses, and the seed held out for claims. */
  val DefaultSeed = 7L
  val HoldOutSeed = 11L

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.getOrElse("workload", "")
    require(Workloads.contains(workload), s"unknown workload '$workload'; one of ${Workloads.mkString(", ")}")
    val seed = opts.get("seed").map(_.toLong).getOrElse(DefaultSeed)
    val traced = opts.getOrElse("trace", "0") == "1"
    val work = new File(opts.getOrElse("work", ".bench_build/perfbench/work"))
    work.mkdirs()

    val run = new Run(traced)
    run.detail("workload", workload)
    run.detail("seed", seed)
    run.detail("hold_out_seed", HoldOutSeed)
    run.detail("traced", traced)
    // The work per run is fixed; the requested run length is only recorded.
    run.detail("seconds", opts.getOrElse("seconds", ""))
    workload match {
      case "tableII" => TableIIWorkload(run, seed)
      case "anytime-paper-scale" => AnytimeWorkload(run, seed)
      case "spark" => SparkWorkload(run, seed, work)
    }
    if (traced) {
      val self = run.selfTimesMs
      run.layer("GraphStream.generate.s", self.getOrElse("GraphStream.generate", 0.0) / 1e3 / Bench.Setups, "s")
      run.detail("self_ms", self)
      run.layer("trace.spans", run.spanCount.toDouble, "count")
      run.layer("trace.overhead_ms", run.spanCount * spanCostNs / 1e6, "ms")
    }
    val expected = if (traced) PerLayer else EndToEnd
    val missing = expected.filterNot(run.hasMetric)
    run.check(missing.isEmpty, s"metrics not measured: ${missing.mkString(", ")}")
    run.detail("failures", run.failures.toSeq)

    val report = Json.render(run.details)
    val out = new PrintWriter(new File(work.getParentFile, s"report-$workload${if (traced) "-traced" else ""}.json"))
    try out.println(report) finally out.close()
    println(report)
    println(run.resultLine)
    System.out.flush()
    sys.exit(0)
  }

  /** Measured cost of recording one span, in ns. */
  private def spanCostNs: Double = {
    val probe = new Run(traced = true)
    val n = 100_000
    var i = 0
    val t0 = System.nanoTime()
    while (i < n) { probe.span("probe")(()); i += 1 }
    (System.nanoTime() - t0).toDouble / n
  }
}
