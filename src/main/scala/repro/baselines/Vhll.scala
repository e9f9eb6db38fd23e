package repro.baselines

import repro.core.{Hashing, RegisterArray, UserCardinalitySketch}

/** vHLL — virtual HyperLogLog (Xiao et al.), the register-sharing baseline.
  *
  * A shared array of `bigM` width-5 registers; user s's *virtual* HLL
  * sketch is the m registers `R[f_1(s)], …, R[f_m(s)]`. Edge (s, d)
  * max-updates `R[f_{h(d)}(s)]` with the item rank ρ(d). Estimator
  * (noise-corrected HLL):
  *
  *   n̂_s = bigM/(bigM−m) · ( α_m·m²/Σ_i 2^-R[f_i(s)]  −  m·α_bigM·bigM/Σ_j 2^-R[j] )
  *
  * where the first (per-user) term switches to linear counting over the
  * user's m registers when it falls below 2.5·m, exactly as in HLL.
  * Negative estimates are clamped to 0. Per §V-B each arrival refreshes
  * only the arriving user's counter, costing O(m): the m register reads.
  * The rest is fixed work, kept off that path. The global register sum is
  * maintained incrementally by [[RegisterArray]], the per-user term comes
  * from a table-driven [[Hll.Estimator]], and the noise term is memoised on
  * the exact global inputs it is computed from.
  *
  * The user's Σ 2^−R is summed exactly, as the integer Σ 2^(31−R) in a
  * `Long`. For m ≤ 2^22 it equals the left-to-right `Double` sum of
  * `Hll.pow2Neg`: every partial sum is a multiple of 2^−31 below 2^22, so
  * none rounds.
  */
final class Vhll(val bigM: Int, val m: Int, val seed: Long = 79L)
    extends UserCardinalitySketch {
  require(bigM > 0, s"vHLL needs a positive shared array size, got $bigM")
  require(m >= 2 && m < bigM, s"vHLL virtual size m=$m must be in [2, $bigM)")

  val registers = new RegisterArray(bigM, RegisterArray.SharedWidth)

  private val positionRange = Hashing.Range(bigM.toLong)
  private val itemRange = Hashing.Range(m.toLong)
  private val selectors = Array.tabulate(m)(Hashing.selectorKey)
  private val userEstimate = new Hll.Estimator(m)
  private val scale = bigM.toDouble / (bigM - m)

  // The noise term and the global register sum and zero count it was
  // computed from (−1: none yet). Keyed on those inputs, it stays exact
  // whatever wrote them.
  private var noiseSum = 0.0
  private var noiseZeros = -1
  private var noiseTerm = 0.0

  override def name: String = "vHLL"

  override def update(s: Long, d: Long): Unit = {
    val user = Hashing.userKey(s, seed)
    val j = Hashing.itemIndex(d, itemRange, seed).toInt
    val pos = Hashing.userSelect(user, selectors(j), positionRange).toInt
    val r = Hashing.rank(d, registers.maxValue, seed)
    registers.update(pos, r)
    counters.put(s, estimateOf(user))
  }

  /** Recompute the estimate of `s` from the shared array (O(m) scan). */
  def estimateNow(s: Long): Double = estimateOf(Hashing.userKey(s, seed))

  private def estimateOf(user: Long): Double = {
    var sumUser = 0L // Σ 2^(31−R) over the user's registers
    var zerosUser = 0
    var i = 0
    while (i < m) {
      val r = registers.get(Hashing.userSelect(user, selectors(i), positionRange).toInt)
      sumUser += 1L << (31 - r)
      zerosUser += (r - 1) >>> 31 // 1 iff r == 0
      i += 1
    }
    val userTerm = userEstimate(sumUser.toDouble / RegisterArray.Two31, zerosUser)
    math.max(0.0, scale * (userTerm - noise))
  }

  // The paper writes the noise term with the *raw* global HLL estimate;
  // on a lightly loaded array that raw estimate is ≈ α·bigM regardless of
  // the data, which would wipe out every small user. We therefore apply
  // HLL's own small-range linear-counting switch to the global term too
  // (the global zero count is tracked incrementally, keeping this O(m)).
  private def noise: Double = {
    val sum = registers.sumPow2Neg
    val zeros = registers.zeros
    if (sum != noiseSum || zeros != noiseZeros) {
      noiseSum = sum; noiseZeros = zeros
      noiseTerm = m.toDouble * Hll.estimate(bigM, sum, zeros) / bigM
    }
    noiseTerm
  }

  override def memoryBits: Long = registers.memoryBits
}
