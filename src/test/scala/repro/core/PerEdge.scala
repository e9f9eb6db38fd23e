package repro.core

/** The specification of FreeBS/FreeRS's buffered `update`: each edge offered
  * to `kernel` on arrival, its increment added at once to the user's counter
  * and to the running total.
  */
final class PerEdge[K <: FreeSlice](val kernel: K) {
  val counters = new UserCounters
  var total = 0.0

  def update(s: Long, d: Long): Unit = {
    val inc = kernel.offer(s, d)
    counters.add(s, inc)
    total += inc
  }
}

object PerEdge {

  /** The exact bits of `x`, so that equal means equal to the last bit. */
  def raw(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)
}
