package repro.baselines

/** HyperLogLog estimator math shared by HLL++ and vHLL.
  *
  * `alpha(m)` follows the paper's constants: tabulated values at
  * m ∈ {16, 32, 64} and `0.7213/(1 + 1.079/m)` for m ≥ 128; other m fall
  * back to the closed form (DESIGN.md §5.3 — within ~2% of the tabulated
  * values, and the linear-counting switch dominates the small-range regime
  * where the difference would matter).
  */
object Hll {

  /** Lookup table of 2^-k for k in [0, 63]: HLL++'s O(m) register scan
    * reads it in its inner loop, where `math.pow` would dominate runtime.
    */
  val pow2Neg: Array[Double] = Array.tabulate(64)(k => math.pow(2.0, -k))

  /** Bias-correction constant α_m. */
  def alpha(m: Int): Double = {
    require(m >= 2, s"HLL needs at least 2 registers, got $m")
    m match {
      case 16 => 0.673
      case 32 => 0.697
      case 64 => 0.709
      case _  => 0.7213 / (1.0 + 1.079 / m)
    }
  }

  /** Raw HLL estimate `α_m m² / Σ 2^-R[i]` from the register sum. */
  def rawEstimate(m: Int, sumPow2Neg: Double): Double =
    alpha(m) * m.toDouble * m.toDouble / sumPow2Neg

  /** Full HLL estimate with the small-range linear-counting switch used by
    * the paper: when the raw estimate is below 2.5·m, the registers are read
    * as an LPC bitmap of m bits with `zeroRegs` zeros.
    */
  def estimate(m: Int, sumPow2Neg: Double, zeroRegs: Int): Double = {
    val raw = rawEstimate(m, sumPow2Neg)
    if (raw < 2.5 * m && zeroRegs > 0) m * math.log(m.toDouble / zeroRegs) else raw
  }

  /** `estimate(m, _, _)` for one sketch size m, equal to it bit for bit, with
    * its fixed work done once: α_m·m² (multiplied in the same order) and the
    * linear-counting values m·ln(m/z) for every zero count z in [1, m]. The
    * per-user sketches of HLL++ and vHLL call it on every update.
    */
  final class Estimator(m: Int) {
    private val alphaMM = alpha(m) * m.toDouble * m.toDouble
    private val smallRange = 2.5 * m
    private val linear = Array.tabulate(m + 1)(z => m * math.log(m.toDouble / z))

    def apply(sumPow2Neg: Double, zeroRegs: Int): Double = {
      val raw = alphaMM / sumPow2Neg
      if (raw < smallRange && zeroRegs > 0) linear(zeroRegs) else raw
    }
  }
}
