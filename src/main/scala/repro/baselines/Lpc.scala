package repro.baselines

import repro.core.{BitArray, Hashing, UserCardinalitySketch}
import scala.collection.mutable

/** LPC — Linear-Time Probabilistic Counting (Whang et al.), one m-bit
  * sketch per user, as benchmarked by the paper with `m = M / |S|` bits per
  * user under a total budget of M bits.
  *
  * Estimator: `-m · ln(U_s/m)` with `U_s` the user's zero-bit count, capped
  * at the range limit `m·ln m` when the bitmap saturates. Following §V-B,
  * each arrival refreshes only the arriving user's counter; the zero count
  * is obtained by scanning the bitmap, the O(m) cost the paper attributes
  * to LPC (§V-D measures exactly this enumeration).
  */
final class Lpc(val m: Int, val seed: Long = 41L) extends UserCardinalitySketch {
  require(m >= 2, s"LPC needs at least 2 bits per user, got $m")

  private val sketches = mutable.HashMap.empty[Long, BitArray]
  private val itemRange = Hashing.Range(m.toLong)

  override def name: String = "LPC"

  private def sketchOf(s: Long): BitArray =
    sketches.getOrElseUpdate(s, new BitArray(m.toLong))

  override def update(s: Long, d: Long): Unit = {
    val b = sketchOf(s)
    b.set(Hashing.itemIndex(d, itemRange, seed))
    counters.put(s, estimateFrom(b))
  }

  private def estimateFrom(b: BitArray): Double =
    Lpc.estimate(m, b.recountZeros()) // O(m) bitmap enumeration, as in the paper

  /** Recompute the estimate of `s` from its current bitmap (O(m) scan). */
  def estimateNow(s: Long): Double = sketches.get(s).map(estimateFrom).getOrElse(0.0)

  /** Total memory across all allocated per-user sketches. */
  override def memoryBits: Long = sketches.size.toLong * m
}

object Lpc {

  /** Linear-counting estimate `−m·ln(zeros/m)` of an m-bit bitmap with
    * `zeros` zero bits, capped at the range limit `m·ln m` when the bitmap
    * saturates. CSE applies it to a user's virtual bitmap.
    */
  def estimate(m: Int, zeros: Long): Double =
    if (zeros == 0) m * math.log(m.toDouble) // saturated: range cap m·ln m
    else -m * math.log(zeros.toDouble / m)

  /** `estimate(m, z)` for every zero count z in [0, m], indexed by z: CSE
    * reads its virtual bitmap's estimate here instead of taking a log.
    */
  def estimates(m: Int): Array[Double] = Array.tabulate(m + 1)(z => estimate(m, z.toLong))
}
