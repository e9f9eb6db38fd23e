package repro.eval

import repro.core.UserCardinalitySketch

/** Drives a sketch over an in-memory edge stream and measures per-update
  * cost — the quantity Figure 3 of the paper reports ("runtime required for
  * processing each element and updating the cardinality of the user").
  *
  * `Experiments.runtimeTable` (Fig. 3) calls [[timed]] one sketch at a time,
  * so its timings see no other feed. The accuracy runners (Table II, Fig. 5
  * and the m-sweep) call [[run]] for several sketches concurrently, one
  * thread each, through `Experiments.feedAll`, and discard the timings.
  */
object Harness {

  /** Feed the whole stream into `sketch`; returns mean wall-clock
    * nanoseconds per update.
    */
  def run(sketch: UserCardinalitySketch, s: Array[Long], d: Array[Long]): Double =
    timed(sketch, s, d, 0, s.length)

  /** Mean ns/update over a stream *prefix*, after a warm-up prefix — used
    * by the runtime bench so JIT compilation does not pollute the numbers.
    * An empty measurement window reports 0, not NaN.
    *
    * FreeBS/FreeRS buffer their updates and apply them a block at a time,
    * on the block's last edge or at the next read. So the window is opened
    * and closed with one O(1) read (`estimate`), which applies any pending
    * edges: the warm-up's before the clock starts, the measured edges'
    * before it stops. The window times exactly its own edges.
    */
  def timed(
      sketch: UserCardinalitySketch,
      s: Array[Long],
      d: Array[Long],
      warmup: Int,
      measured: Int
  ): Double = {
    require(s.length == d.length, s"ragged stream: ${s.length} users vs ${d.length} items")
    require(warmup >= 0 && measured >= 0, s"negative window: warmup $warmup, measured $measured")
    require(warmup.toLong + measured <= s.length,
      s"stream too short: need ${warmup.toLong + measured}, have ${s.length}")
    var i = 0
    while (i < warmup) { sketch.update(s(i), d(i)); i += 1 }
    sketch.estimate(0L)
    val t0 = System.nanoTime()
    while (i < warmup + measured) { sketch.update(s(i), d(i)); i += 1 }
    sketch.estimate(0L)
    (System.nanoTime() - t0).toDouble / math.max(1, measured)
  }
}
