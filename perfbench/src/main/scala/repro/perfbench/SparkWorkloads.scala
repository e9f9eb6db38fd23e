package repro.perfbench

import java.io.File
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.SparkBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.storage.StorageLevel

import repro.core.{FreeBS, FreeRS}
import repro.data.{EdgeStream, Profile}
import repro.dist.{SlicedFree, StreamingFree}
import repro.eval.{Experiments, Metrics}

/** Task totals from Spark's own listener events. */
final class TaskCounter extends SparkListener {
  val tasks, runMs, shuffleRead, shuffleWrite = new AtomicLong
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    Option(e.taskMetrics).foreach { m =>
      runMs.addAndGet(m.executorRunTime)
      shuffleRead.addAndGet(m.shuffleReadMetrics.totalBytesRead)
      shuffleWrite.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }
  }
  def snapshot: Seq[Long] = Seq(tasks.get, runMs.get, shuffleRead.get, shuffleWrite.get)
}

object SparkMetrics {
  val StageMetrics = Seq("Spark.tasks" -> "count", "Spark.executor_run_ms" -> "ms",
    "Spark.shuffle_read_mb" -> "MB", "Spark.shuffle_write_mb" -> "MB")
  val StreamingMetrics = Seq("StreamingFree.addBatch.ms" -> "ms", "StreamingFree.walCommit.ms" -> "ms",
    "StreamingFree.commitOffsets.ms" -> "ms", "StreamingFree.queryPlanning.ms" -> "ms",
    "StreamingFree.state_rows" -> "count", "StreamingFree.tasks_per_batch" -> "count")

  /** Pinned session settings: a later change must win inside repro.dist,
    * not through a different configuration here.
    */
  def settings(work: File): Seq[(String, String)] = Seq(
    "spark.master" -> "local[4]",
    "spark.sql.shuffle.partitions" -> "64",
    "spark.ui.enabled" -> "false",
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
    "spark.driver.host" -> "127.0.0.1",
    "spark.local.dir" -> new File(work, "spark-local").getPath,
    "spark.sql.warehouse.dir" -> new File(work, "warehouse").getPath,
  )

  def session(run: Run, work: File): SparkSession = {
    val b = SparkSession.builder.appName("perfbench")
    settings(work).foreach { case (k, v) => b.config(k, v) }
    val (spark, s) = run.timed("SparkSession.start")(b.getOrCreate())
    spark.sparkContext.setLogLevel("ERROR")
    run.detail("spark_settings", settings(work).toMap)
    run.detail("spark_start_s", s)
    spark
  }

  /** Listener totals since `before`, after the listener bus has drained. */
  def since(spark: SparkSession, counter: TaskCounter, before: Seq[Long]): Seq[Long] = {
    SparkBusDrain.drain(spark.sparkContext)
    counter.snapshot.zip(before).map { case (a, b) => a - b }
  }

  def reportStages(run: Run, totals: Seq[Long]): Unit = {
    val Seq(tasks, runMs, read, write) = totals
    run.layer("Spark.tasks", tasks.toDouble, "count")
    run.layer("Spark.executor_run_ms", runMs.toDouble, "ms")
    run.layer("Spark.shuffle_read_mb", read / 1048576.0, "MB")
    run.layer("Spark.shuffle_write_mb", write / 1048576.0, "MB")
  }

  /** Per-user estimates from rows (user, estimate); unseen users read 0. */
  def estimates(rows: Array[Row], users: Int): Array[Double] = {
    val est = new Array[Double](users)
    rows.foreach(r => est(r.getLong(0).toInt) = r.getDouble(1))
    est
  }

  /** Sequential FreeBS/FreeRS over the first `n` edges of `st`. */
  def sequential(run: Run, st: EdgeStream, n: Int, mBits: Long, regs: Int): (FreeBS, FreeRS) =
    run.span("sequential reference") {
      val bs = new FreeBS(mBits, Bench.BsSeed)
      val rs = new FreeRS(regs, Experiments.RegisterWidth, Bench.RsSeed)
      var i = 0
      while (i < n) { bs.update(st.users(i), st.items(i)); rs.update(st.users(i), st.items(i)); i += 1 }
      (bs, rs)
    }
}

/** Both Spark paths on the Orkut replica (2.9 M edges; M = 5·10⁶ bits /
  * 10⁶ registers), in one session so a run pays for one Spark start.
  *
  * Batch: `SlicedFree.freeBS` and `SlicedFree.freeRS` at P ∈ {1, 64}
  * over a Dataset built and cached once, in set-up. P = 1 is the
  * single-slice baseline of the same job and must equal the sequential
  * sketches exactly. Job time is nearly flat in P, so P = 4 is left out
  * to keep the run inside its time budget.
  *
  * Streaming: `StreamingFree.freeBSEstimates` and `freeRSEstimates` with
  * P = 4, each a fresh query fed in a closed loop: add one 50 K-edge
  * micro-batch to a `MemoryStream`, wait with `processAllAvailable`. Each
  * batch costs ~5 s whatever its size, so one batch per query fits the
  * run's time budget; it includes the query's start-up.
  */
object SparkWorkload {
  val MBits = Experiments.DefaultMBits
  val Registers = (Experiments.DefaultMBits / Experiments.RegisterWidth).toInt
  val Slices = Seq(1, 64)
  val StreamSlices = 4
  val BatchEdges = 50_000
  /** Micro-batches per streaming query. */
  val Batches = 1

  final case class Job(p: Int, kind: String, est: Array[Double], s: Double, stage: Seq[Long])
  final case class Batch(s: Double, durations: Map[String, Double], stateRows: Long, stage: Seq[Long])
  final case class Query(kind: String, batches: Seq[Batch], est: Array[Double], s: Double, readS: Double)

  def apply(run: Run, seed: Long, work: File): Unit = {
    val spark = SparkMetrics.session(run, work)
    import spark.implicits._
    var cached: Option[org.apache.spark.sql.Dataset[SlicedFree.Edge]] = None
    val (st, batches) = Bench.setUp(run) {
      cached.foreach(_.unpersist(blocking = true))
      val st = run.span("GraphStream.generate")(Experiments.dataset(Profile.orkut, seed = seed).stream)
      val rows = Array.tabulate(st.length)(i => SlicedFree.Edge(i.toLong, st.users(i), st.items(i)))
      val ds = spark.sparkContext.parallelize(rows.toIndexedSeq, 16).toDS().persist(StorageLevel.MEMORY_ONLY)
      ds.count()
      cached = Some(ds)
      val batches = (0 until Batches).map { b =>
        (b * BatchEdges until (b + 1) * BatchEdges).map(i => StreamingFree.Edge(i.toLong, st.users(i), st.items(i)))
      }
      (st, batches)
    }
    val edges = cached.get
    val streamed = Batches * BatchEdges
    val prefixTruth = {
      val seen = scala.collection.mutable.HashSet.empty[Long]
      val t = new Array[Int](st.userCount)
      (0 until streamed).foreach(i => if (seen.add(st.items(i))) t(st.users(i).toInt) += 1)
      t
    }
    val counter = new TaskCounter
    if (run.traced) spark.sparkContext.addSparkListener(counter)
    val heapBefore = Heap.liveMb()

    val jobs = sliced(run, spark, edges, st, counter)
    val queries = streaming(run, spark, batches, st.userCount, counter, work)
    val slicedS = jobs.map(_.s).sum
    val streamingS = queries.map(_.s).sum
    val wall = slicedS + streamingS
    run.endToEnd("wall_s", wall, "s")
    run.endToEnd("edges_per_s", (jobs.size.toDouble * st.length + queries.size * streamed) / wall, "1/s")
    run.endToEnd("update_ns_p50", Stats.median(jobs.map(_.s * 1e9 / st.length)), "ns")
    run.detail("sliced_s", slicedS)
    run.detail("streaming_s", streamingS)
    Slices.foreach { p =>
      run.detail(s"edges_per_s.P$p", 2.0 * st.length / jobs.filter(_.p == p).map(_.s).sum)
    }
    run.detail("job_s", jobs.map(j => s"${j.kind}.P${j.p}" -> j.s).toMap)
    val allBatches = queries.flatMap(_.batches)
    run.detail("batch_ms", Stats.timing(allBatches.map(_.s * 1e3)))
    run.detail("result_read_ms", queries.map(q => q.kind -> q.readS * 1e3).toMap)
    run.detail("state_rows", queries.map(q => q.kind -> q.batches.map(_.stateRows)).toMap)

    val (bs, rs) = SparkMetrics.sequential(run, st, st.length, MBits, Registers)
    val seqEst = Map("FreeBS" -> Layers.snapshot(st.userCount, bs.estimate),
      "FreeRS" -> Layers.snapshot(st.userCount, rs.estimate))
    def sd(kind: String, n: Double) =
      if (kind == "FreeBS") Bench.bsTotalSd(n, MBits.toDouble) else Bench.rsTotalSd(n, Registers.toDouble)
    jobs.foreach { j =>
      Bench.checkSnapshot(run, s"${j.kind} P=${j.p}", j.est)
      Bench.checkTotal(run, s"${j.kind} P=${j.p}", j.est.sum, st.totalCardinality.toDouble,
        sd(j.kind, st.totalCardinality.toDouble))
      if (j.p == 1) {
        val same = j.est.indices.forall(u => j.est(u) == seqEst(j.kind)(u))
        run.check(same, s"${j.kind} P=1 differs from the sequential sketch")
      }
      run.detail(s"digest.${j.kind}.P${j.p}", Digest.ofDoubles(j.est))
    }
    val exactPrefix = prefixTruth.map(_.toLong).sum.toDouble
    queries.foreach { q =>
      Bench.checkSnapshot(run, s"streaming ${q.kind}", q.est)
      Bench.checkTotal(run, s"streaming ${q.kind}", q.est.sum, exactPrefix, sd(q.kind, exactPrefix))
      val strays = q.est.indices.count(u => q.est(u) > 0 && prefixTruth(u) == 0)
      run.check(strays == 0, s"streaming ${q.kind}: $strays users with an estimate but no edge")
      run.detail(s"digest.streaming.${q.kind}", Digest.ofDoubles(q.est))
      run.detail(s"rse.streaming.${q.kind}", Stats.rse(prefixTruth, q.est))
    }
    val last = jobs.filter(_.p == Slices.last)
    run.endToEnd("rse_freebs", Stats.rse(st.truth, last.find(_.kind == "FreeBS").get.est), "ratio")
    run.endToEnd("rse_freers", Stats.rse(st.truth, last.find(_.kind == "FreeRS").get.est), "ratio")
    run.endToEnd("live_heap_mb", Heap.liveMb() - heapBefore, "MB")

    val (_, q) = run.timed("Metrics.superSpreader") {
      Metrics.superSpreader(st.truth, u => last.head.est(u.toInt), Experiments.Delta * st.totalCardinality)
    }
    run.layer("Metrics.superSpreader.ms", q * 1e3, "ms")
    Bench.health(run, bs, rs, st.userCount)
    if (run.traced) {
      SparkMetrics.reportStages(run, (jobs.map(_.stage) ++ queries.flatMap(_.batches.map(_.stage))).transpose.map(_.sum))
      run.detail("stages", jobs.map(j => s"${j.kind}.P${j.p}" ->
        Map("tasks" -> j.stage(0), "executor_run_ms" -> j.stage(1), "shuffle_read_bytes" -> j.stage(2),
          "shuffle_write_bytes" -> j.stage(3))).toMap)
      Slices.foreach(p => run.detail(s"slice_skew.P$p", Layers.sliceSkew(Seq(st), MBits, Bench.BsSeed, p)))
      run.layer("SlicedFree.slice_skew", Layers.sliceSkew(Seq(st), MBits, Bench.BsSeed, 64), "ratio")
      Seq("addBatch", "walCommit", "commitOffsets", "queryPlanning").foreach { k =>
        run.layer(s"StreamingFree.$k.ms", Stats.median(allBatches.map(_.durations(k))), "ms")
      }
      run.layer("StreamingFree.state_rows", queries.map(_.batches.last.stateRows).sum.toDouble, "count")
      run.layer("StreamingFree.tasks_per_batch", Stats.median(allBatches.map(_.stage.head.toDouble)), "count")
      Layers.replay(run, Seq(st), Layers.Config(MBits, Registers, Bench.BsSeed, Bench.RsSeed))
    }
    edges.unpersist(blocking = true)
    spark.stop()
  }

  private def sliced(run: Run, spark: SparkSession, edges: org.apache.spark.sql.Dataset[SlicedFree.Edge],
                     st: EdgeStream, counter: TaskCounter): Seq[Job] =
    for (p <- Slices; kind <- Seq("FreeBS", "FreeRS")) yield {
      val before = counter.snapshot
      val (rows, s) = run.timed(s"SlicedFree.$kind") {
        (if (kind == "FreeBS") SlicedFree.freeBS(edges, MBits, p) else SlicedFree.freeRS(edges, Registers, p)).collect()
      }
      val stage = if (run.traced) SparkMetrics.since(spark, counter, before) else Seq(0L, 0L, 0L, 0L)
      Job(p, kind, SparkMetrics.estimates(rows, st.userCount), s, stage)
    }

  private def streaming(run: Run, spark: SparkSession, batches: Seq[Seq[StreamingFree.Edge]], users: Int,
                        counter: TaskCounter, work: File): Seq[Query] = {
    implicit val sqlContext: org.apache.spark.sql.SQLContext = spark.sqlContext
    import spark.implicits._
    Seq("FreeBS", "FreeRS").map { kind =>
      val stream = MemoryStream[StreamingFree.Edge]
      val df = if (kind == "FreeBS") StreamingFree.freeBSEstimates(stream.toDS(), MBits, StreamSlices)
               else StreamingFree.freeRSEstimates(stream.toDS(), Registers, StreamSlices)
      val name = s"perfbench_$kind"
      val t0 = System.nanoTime()
      val q = df.writeStream.outputMode("complete").format("memory").queryName(name)
        .option("checkpointLocation", new File(work, s"checkpoint-$kind").getPath).start()
      val perBatch = batches.map { batch =>
        val before = counter.snapshot
        val (_, s) = run.timed(s"StreamingFree.$kind.batch") { stream.addData(batch); q.processAllAvailable() }
        val p = q.lastProgress
        val stage = if (run.traced) SparkMetrics.since(spark, counter, before) else Seq(0L, 0L, 0L, 0L)
        val durations = Seq("addBatch", "walCommit", "commitOffsets", "queryPlanning")
          .map(k => k -> Option(p.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)).toMap
        Batch(s, durations, p.stateOperators.map(_.numRowsTotal).sum, stage)
      }
      val (rows, readS) = run.timed(s"StreamingFree.$kind.read")(spark.table(name).collect())
      val s = (System.nanoTime() - t0) / 1e9
      q.stop()
      Query(kind, perBatch, SparkMetrics.estimates(rows, users), s, readS)
    }
  }
}
