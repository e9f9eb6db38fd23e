package repro.perfbench

import repro.core.{BitArray, FreeBS, FreeRS, Hashing, RegisterArray}
import repro.data.EdgeStream
import repro.eval.Experiments

/** Per-layer replays of one FreeBS/FreeRS update, run in traced runs only.
  *
  * Each layer is driven alone over the workload's own pairs, through its
  * public API: the pair hash, then the shared-array update on precomputed
  * positions, then the whole sketch. The per-user counter's own cost is
  * what the whole update takes beyond its hash and array steps.
  */
object Layers {

  /** Sketch sizes and hash seeds of one workload's FreeBS/FreeRS. */
  final case class Config(mBits: Long, registers: Int, bsSeed: Long, rsSeed: Long)

  /** Edges of the baselines' replay per stream: they are O(m) per edge. */
  val BaselinePrefix = 50_000

  private final class Acc {
    var ns = 0L; var n = 0L; var hits = 0L
    def add(dt: Long, count: Long, h: Long = 0L): Unit = { ns += dt; n += count; hits += h }
    def perOp: Double = if (n == 0) 0.0 else ns.toDouble / n
    def ratio: Double = if (n == 0) 0.0 else hits.toDouble / n
  }

  /** Per-edge update and per-user estimate costs, in ns, that a workload
    * already measured on its own sketches.
    */
  final case class SketchCosts(bsUpdate: Double, rsUpdate: Double, bsEstimate: Double)

  /** Replays every layer over each stream and records the per-layer
    * metrics. The streams of one workload share one configuration. When
    * the workload ran FreeBS/FreeRS itself, `measured` gives their costs
    * and the whole-sketch replay is skipped.
    */
  def replay(run: Run, streams: Seq[EdgeStream], cfg: Config,
             measured: Option[SketchCosts] = None): Unit = {
    val index, rank, bitSet, regUpdate, bsUpdate, rsUpdate, bsEstimate = new Acc
    val baselines = Map("Cse" -> new Acc, "Vhll" -> new Acc, "HllPlusPlus" -> new Acc)
    var sink = 0L
    streams.foreach { st =>
      val n = st.length
      val us = st.users; val ds = st.items
      val bsIdx = new Array[Long](n)
      val rsIdx = new Array[Int](n)
      val ranks = new Array[Byte](n)
      val maxRank = (1 << Experiments.RegisterWidth) - 1

      var t0 = System.nanoTime()
      run.span("Hashing.pairIndex") {
        var i = 0
        while (i < n) { bsIdx(i) = Hashing.pairIndex(us(i), ds(i), cfg.mBits, cfg.bsSeed); i += 1 }
      }
      index.add(System.nanoTime() - t0, n)
      run.span("Hashing.pairIndex") {
        var i = 0
        while (i < n) { rsIdx(i) = Hashing.pairIndex(us(i), ds(i), cfg.registers.toLong, cfg.rsSeed).toInt; i += 1 }
      }
      t0 = System.nanoTime()
      run.span("Hashing.pairRank") {
        var i = 0
        while (i < n) { ranks(i) = Hashing.pairRank(us(i), ds(i), maxRank, cfg.rsSeed).toByte; i += 1 }
      }
      rank.add(System.nanoTime() - t0, n)

      val bits = new BitArray(cfg.mBits)
      t0 = System.nanoTime()
      val flips = run.span("BitArray.set") {
        var f = 0L; var i = 0
        while (i < n) { if (bits.set(bsIdx(i))) f += 1; i += 1 }
        f
      }
      bitSet.add(System.nanoTime() - t0, n, flips)

      val regs = new RegisterArray(cfg.registers, Experiments.RegisterWidth)
      t0 = System.nanoTime()
      val grows = run.span("RegisterArray.update") {
        var g = 0L; var i = 0
        while (i < n) { if (regs.update(rsIdx(i), ranks(i).toInt)) g += 1; i += 1 }
        g
      }
      regUpdate.add(System.nanoTime() - t0, n, grows)

      if (measured.isEmpty) {
        val bs = new FreeBS(cfg.mBits, cfg.bsSeed)
        t0 = System.nanoTime()
        run.span("FreeBS.update") { var i = 0; while (i < n) { bs.update(us(i), ds(i)); i += 1 } }
        bsUpdate.add(System.nanoTime() - t0, n)
        val rs = new FreeRS(cfg.registers, Experiments.RegisterWidth, cfg.rsSeed)
        t0 = System.nanoTime()
        run.span("FreeRS.update") { var i = 0; while (i < n) { rs.update(us(i), ds(i)); i += 1 } }
        rsUpdate.add(System.nanoTime() - t0, n)

        t0 = System.nanoTime()
        run.span("FreeBS.estimate") {
          var u = 0; var s = 0.0
          while (u < st.userCount) { s += bs.estimate(u.toLong); u += 1 }
          sink += s.toLong
        }
        bsEstimate.add(System.nanoTime() - t0, st.userCount)
      }

      val prefix = math.min(n, BaselinePrefix)
      Experiments.tableIISketches(cfg.mBits, Experiments.DefaultVirtualM, st.userCount, cfg.bsSeed)
        .drop(2).foreach { sk =>
          val name = sk.getClass.getSimpleName
          t0 = System.nanoTime()
          run.span(s"$name.update") { var i = 0; while (i < prefix) { sk.update(us(i), ds(i)); i += 1 } }
          baselines(name).add(System.nanoTime() - t0, prefix)
        }
    }
    run.detail("layer_replay_sink", sink)
    run.layer("Hashing.pairIndex.ns", index.perOp, "ns")
    run.layer("Hashing.pairRank.ns", rank.perOp, "ns")
    run.layer("BitArray.set.ns", bitSet.perOp, "ns")
    run.layer("BitArray.flip_ratio", bitSet.ratio, "ratio")
    run.layer("RegisterArray.update.ns", regUpdate.perOp, "ns")
    run.layer("RegisterArray.grow_ratio", regUpdate.ratio, "ratio")
    val costs = measured.getOrElse(SketchCosts(bsUpdate.perOp, rsUpdate.perOp, bsEstimate.perOp))
    run.layer("FreeBS.update.ns", costs.bsUpdate, "ns")
    run.layer("FreeRS.update.ns", costs.rsUpdate, "ns")
    run.layer("FreeBS.counter_self.ns", costs.bsUpdate - index.perOp - bitSet.perOp, "ns")
    run.layer("FreeRS.counter_self.ns",
      costs.rsUpdate - index.perOp - rank.perOp - regUpdate.perOp, "ns")
    run.layer("FreeBS.estimate.ns", costs.bsEstimate, "ns")
    baselines.foreach { case (name, acc) => run.layer(s"$name.update.ns", acc.perOp, "ns") }
    run.detail("baseline_replay_edges_per_stream", BaselinePrefix)
  }

  /** Max over mean of the edges each of `p` slices receives, with slices
    * assigned as SlicedFree/StreamingFree assign them.
    */
  def sliceSkew(streams: Seq[EdgeStream], mBits: Long, seed: Long, p: Int): Double = {
    val counts = new Array[Long](p)
    streams.foreach { st =>
      var i = 0
      while (i < st.length) {
        counts((Hashing.pairIndex(st.users(i), st.items(i), mBits, seed) % p).toInt) += 1
        i += 1
      }
    }
    counts.max / (counts.sum.toDouble / p)
  }

  /** Per-user estimates of users 0 until `users`, read through `estimate`. */
  def snapshot(users: Int, estimate: Long => Double): Array[Double] =
    Array.tabulate(users)(u => estimate(u.toLong))
}
