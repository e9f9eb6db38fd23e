package repro.core

/** A mutable array of `size` registers of `width` bits each, with the
  * running sum `Σ_j 2^{-R[j]}` maintained incrementally.
  *
  * This is the shared-array substrate of FreeRS and vHLL: O(1) max-update,
  * and `sumPow2Neg` gives the Horvitz–Thompson probability
  * `q_R = sumPow2Neg / size` in O(1) at every step.
  *
  * Register values saturate at `maxValue = 2^width - 1` (e.g. 31 for the
  * paper's 5-bit registers). The sum is kept exactly, as the integer
  * `Σ_j 2^{31-R[j]}` in a `Long`: width ≤ 5 keeps every exponent
  * non-negative, and the sum is at most size·2^31 < 2^63 for every `Int`
  * size, so it never rounds, at the paper's 10⁸ registers included.
  */
final class RegisterArray(val size: Int, val width: Int) {
  require(size > 0, s"register array size must be positive, got $size")
  require(width >= 1 && width <= 5, s"register width must be in [1,5], got $width")

  val maxValue: Int = (1 << width) - 1

  private val regs = new Array[Byte](size)
  private var sum: Long = size.toLong << 31 // all registers zero: Σ 2^31 = size·2^31
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
      sum += (1L << (31 - clamped)) - (1L << (31 - old))
      if (old == 0) zeroRegs -= 1
      regs(i) = clamped.toByte
      true
    } else false
  }

  /** Incrementally maintained `Σ_j 2^{-R[j]}`. */
  def sumPow2Neg: Double = sum.toDouble / RegisterArray.Two31

  /** Number of registers still equal to zero, tracked incrementally (O(1);
    * used by the linear-counting small-range regime of HLL-style
    * estimators on the *shared* array, where an O(size) scan per update
    * would be prohibitive).
    */
  def zeros: Int = zeroRegs

  /** Memory footprint in bits (the quantity the paper budgets by). */
  def memoryBits: Long = size.toLong * width
}

object RegisterArray {

  /** Width of the shared registers of FreeRS and vHLL: the paper's w = 5. */
  val SharedWidth = 5

  /** 2^31: an integer sum Σ 2^(31−R) divided by it is Σ 2^−R. */
  private[repro] val Two31 = (1L << 31).toDouble
}
