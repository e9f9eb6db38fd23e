package repro.baselines

import repro.core.{Hashing, UserCardinalitySketch}
import scala.collection.mutable

/** HLL++ — per-user HyperLogLog with 6-bit registers (Heule et al.), as
  * benchmarked by the paper with `m = M / (6·|S|)` registers per user under
  * a total budget of M bits.
  *
  * DESIGN.md §5.2: the empirically-trained bias table and sparse encoding
  * of the original HLL++ are substituted by the 64-bit hash + 6-bit
  * registers + linear-counting small-range switch, which reproduce the
  * behaviour the paper's comparison relies on.
  */
final class HllPlusPlus(val m: Int, val seed: Long = 53L) extends UserCardinalitySketch {
  require(m >= 2, s"HLL++ needs at least 2 registers per user, got $m")

  val width: Int = HllPlusPlus.Width

  private val sketches = mutable.HashMap.empty[Long, Array[Byte]]
  private val itemRange = Hashing.Range(m.toLong)
  private val estimator = new Hll.Estimator(m)

  override def name: String = "HLL++"

  override def update(s: Long, d: Long): Unit = {
    val regs = sketches.getOrElseUpdate(s, new Array[Byte](m))
    val pos = Hashing.itemIndex(d, itemRange, seed).toInt
    val r = Hashing.rank(d, 63, seed) // capped at 2^Width − 1
    if (r > regs(pos)) regs(pos) = r.toByte
    counters.put(s, estimateFrom(regs))
  }

  // O(m) register enumeration per estimate, the cost model of §V-D.
  private def estimateFrom(regs: Array[Byte]): Double = {
    var sum = 0.0
    var zeros = 0
    var i = 0
    while (i < m) {
      val r = regs(i)
      sum += Hll.pow2Neg(r)
      if (r == 0) zeros += 1
      i += 1
    }
    estimator(sum, zeros)
  }

  /** Recompute the estimate of `s` from its current registers (O(m)). */
  def estimateNow(s: Long): Double = sketches.get(s).map(estimateFrom).getOrElse(0.0)

  /** Total memory across all allocated per-user sketches. */
  override def memoryBits: Long = sketches.size.toLong * m * width
}

object HllPlusPlus {

  /** Register width of every per-user sketch: the paper's 6 bits. */
  val Width = 6
}
