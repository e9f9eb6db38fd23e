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
    */
  def timed(
      sketch: UserCardinalitySketch,
      s: Array[Long],
      d: Array[Long],
      warmup: Int,
      measured: Int
  ): Double = {
    require(s.length == d.length, s"ragged stream: ${s.length} users vs ${d.length} items")
    require(warmup + measured <= s.length,
      s"stream too short: need ${warmup + measured}, have ${s.length}")
    var i = 0
    while (i < warmup) { sketch.update(s(i), d(i)); i += 1 }
    val t0 = System.nanoTime()
    while (i < warmup + measured) { sketch.update(s(i), d(i)); i += 1 }
    (System.nanoTime() - t0).toDouble / math.max(1, measured)
  }
}
