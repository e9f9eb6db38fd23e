package repro.core

import RegisterArray.pow2Neg

/** A mutable array of `size` registers of `width` bits each, with the
  * running sum `Σ_j 2^{-R[j]}` maintained incrementally.
  *
  * This is the shared-array substrate of FreeRS and vHLL: O(1) max-update,
  * and `sumPow2Neg` gives the Horvitz–Thompson probability
  * `q_R = sumPow2Neg / size` in O(1) at every step.
  *
  * Register values saturate at `maxValue = 2^width - 1` (e.g. 31 for the
  * paper's 5-bit registers). For width ≤ 5 and size ≤ 2^21 the incremental
  * sum is *exact* in a Double: every term is a multiple of 2^-31 and the
  * total is ≤ size, which fits in the 53-bit mantissa. Above 2^21 registers
  * it is not exact: at the paper's scale (10⁸ registers, as perfbench's
  * `anytime-paper-scale` runs FreeRS) ulp(sum) is 2^-26 while terms move
  * in steps of 2^-31, so the sum rounds on updates. ROADMAP item 3 holds
  * the exact `Long` sum.
  */
final class RegisterArray(val size: Int, val width: Int) {
  require(size > 0, s"register array size must be positive, got $size")
  require(width >= 1 && width <= 6, s"register width must be in [1,6], got $width")

  val maxValue: Int = (1 << width) - 1

  private val regs = new Array[Byte](size)
  private var sumPow: Double = size.toDouble // all registers zero: Σ 2^0 = size
  private var zeroRegs: Int = size

  /** Current value of register `i`. */
  def get(i: Int): Int = {
    require(i >= 0 && i < size, s"register index $i out of [0, $size)")
    regs(i).toInt
  }

  /** `max`-update register `i` with rank `r`; returns true iff it grew. */
  def update(i: Int, r: Int): Boolean = {
    require(i >= 0 && i < size, s"register index $i out of [0, $size)")
    require(r >= 0, s"rank must be non-negative, got $r")
    val clamped = math.min(r, maxValue)
    val old = regs(i).toInt
    if (clamped > old) {
      sumPow += pow2Neg(clamped) - pow2Neg(old)
      if (old == 0) zeroRegs -= 1
      regs(i) = clamped.toByte
      true
    } else false
  }

  /** Incrementally maintained `Σ_j 2^{-R[j]}`. */
  def sumPow2Neg: Double = sumPow

  /** Recompute `Σ_j 2^{-R[j]}` from scratch (O(size)); test cross-check. */
  def recomputeSumPow2Neg: Double = {
    var s = 0.0
    var i = 0
    while (i < size) { s += pow2Neg(regs(i).toInt); i += 1 }
    s
  }

  /** Number of registers still equal to zero, tracked incrementally (O(1);
    * used by the linear-counting small-range regime of HLL-style
    * estimators on the *shared* array, where an O(size) scan per update
    * would be prohibitive).
    */
  def zeros: Int = zeroRegs

  /** Recount of zero registers by scanning (O(size)); test cross-check of
    * [[zeros]].
    */
  def countZero: Int = {
    var z = 0
    var i = 0
    while (i < size) { if (regs(i) == 0) z += 1; i += 1 }
    z
  }

  /** Memory footprint in bits (the quantity the paper budgets by). */
  def memoryBits: Long = size.toLong * width
}

object RegisterArray {

  /** Width of the shared registers of FreeRS and vHLL: the paper's w = 5. */
  val SharedWidth = 5

  /** Lookup table of 2^-k for k in [0, 63], shared by every register
    * estimator: the O(m) HLL scans of the baselines call it in their inner
    * loop, where `math.pow` would dominate runtime.
    */
  val pow2Neg: Array[Double] = Array.tabulate(64)(k => math.pow(2.0, -k))
}
