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
  * only the arriving user's counter, costing O(m); the global register sum
  * is maintained incrementally by [[RegisterArray]].
  */
final class Vhll(val bigM: Int, val m: Int, val seed: Long = 79L)
    extends UserCardinalitySketch {
  require(bigM > 0, s"vHLL needs a positive shared array size, got $bigM")
  require(m >= 2 && m < bigM, s"vHLL virtual size m=$m must be in [2, $bigM)")

  val registers = new RegisterArray(bigM, RegisterArray.SharedWidth)

  private val positionRange = Hashing.Range(bigM.toLong)
  private val itemRange = Hashing.Range(m.toLong)
  private val selectors = Array.tabulate(m)(Hashing.selectorKey)

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
    var sumUser = 0.0
    var zerosUser = 0
    var i = 0
    while (i < m) {
      val r = registers.get(Hashing.userSelect(user, selectors(i), positionRange).toInt)
      sumUser += Hll.pow2Neg(r)
      if (r == 0) zerosUser += 1
      i += 1
    }
    val userTerm = Hll.estimate(m, sumUser, zerosUser)
    // The paper writes the noise term with the *raw* global HLL estimate;
    // on a lightly loaded array that raw estimate is ≈ α·bigM regardless of
    // the data, which would wipe out every small user. We therefore apply
    // HLL's own small-range linear-counting switch to the global term too
    // (the global zero count is tracked incrementally, keeping this O(m)).
    val globalEst = Hll.estimate(bigM, registers.sumPow2Neg, registers.zeros)
    val noiseTerm = m.toDouble * globalEst / bigM
    math.max(0.0, bigM.toDouble / (bigM - m) * (userTerm - noiseTerm))
  }

  override def memoryBits: Long = registers.memoryBits
}
