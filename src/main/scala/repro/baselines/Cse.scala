package repro.baselines

import repro.core.{BitArray, Hashing, UserCardinalitySketch}

/** CSE — Compact Spread Estimator (Yoon et al.), the bit-sharing baseline.
  *
  * A shared bit array `A` of `bigM` bits; user s's *virtual* LPC sketch is
  * the m bits `A[f_1(s)], …, A[f_m(s)]`. Edge (s, d) sets `A[f_{h(d)}(s)]`.
  * Estimator (noise-corrected LPC):
  *
  *   n̂_s = −m·ln(Û_s/m) + m·ln(U/bigM)
  *
  * with Û_s the zero count among the user's virtual bits and U the global
  * zero count. When the virtual sketch saturates (Û_s = 0) the estimate is
  * capped at the range limit `m·ln m`; negative estimates (noise term
  * exceeding the raw term for tiny users) are clamped to 0. Per §V-B each
  * arrival refreshes only the arriving user's counter, costing O(m).
  */
final class Cse(val bigM: Long, val m: Int, val seed: Long = 67L)
    extends UserCardinalitySketch {
  require(bigM > 0, s"CSE needs a positive shared array size, got $bigM")
  require(m >= 2 && m <= bigM, s"CSE virtual size m=$m must be in [2, $bigM]")

  val array = new BitArray(bigM)

  private val positionRange = Hashing.Range(bigM)
  private val itemRange = Hashing.Range(m.toLong)
  private val selectors = Array.tabulate(m)(Hashing.selectorKey)

  override def name: String = "CSE"

  override def update(s: Long, d: Long): Unit = {
    val user = Hashing.userKey(s, seed)
    val j = Hashing.itemIndex(d, itemRange, seed).toInt
    array.set(Hashing.userSelect(user, selectors(j), positionRange))
    counters.put(s, estimateOf(user))
  }

  /** Recompute the estimate of `s` from the shared array (O(m) scan). */
  def estimateNow(s: Long): Double = estimateOf(Hashing.userKey(s, seed))

  private def estimateOf(user: Long): Double = {
    var zerosVirtual = 0
    var i = 0
    while (i < m) {
      if (!array.get(Hashing.userSelect(user, selectors(i), positionRange))) zerosVirtual += 1
      i += 1
    }
    val raw = Lpc.estimate(m, zerosVirtual)
    if (zerosVirtual == 0) raw // saturated: the range cap m·ln m
    else {
      val noise = -m * math.log(array.zeros.toDouble / bigM)
      math.max(0.0, raw - noise)
    }
  }

  override def memoryBits: Long = array.memoryBits
}
