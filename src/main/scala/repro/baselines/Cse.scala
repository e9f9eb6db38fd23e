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
  * arrival refreshes only the arriving user's counter, costing O(m): the m
  * reads of the virtual bits. The rest is fixed work, kept off that path:
  * the LPC estimate comes from a table of its m + 1 values, and the noise
  * term is memoised on the exact global zero count it is computed from.
  */
final class Cse(val bigM: Long, val m: Int, val seed: Long = 67L)
    extends UserCardinalitySketch {
  require(bigM > 0, s"CSE needs a positive shared array size, got $bigM")
  require(m >= 2 && m <= bigM, s"CSE virtual size m=$m must be in [2, $bigM]")

  val array = new BitArray(bigM)

  private val positionRange = Hashing.Range(bigM)
  private val itemRange = Hashing.Range(m.toLong)
  private val selectors = Array.tabulate(m)(Hashing.selectorKey)
  private val virtualEstimate = Lpc.estimates(m)

  // −m·ln(U/bigM) and the zero count U it was computed from (−1: none yet).
  private var noiseZeros = -1L
  private var noiseTerm = 0.0

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
    var ones = 0
    var i = 0
    while (i < m) {
      ones += array.bit(Hashing.userSelect(user, selectors(i), positionRange))
      i += 1
    }
    val zerosVirtual = m - ones
    val raw = virtualEstimate(zerosVirtual)
    if (zerosVirtual == 0) raw // saturated: the range cap m·ln m
    else math.max(0.0, raw - noise)
  }

  private def noise: Double = {
    val z = array.zeros
    if (z != noiseZeros) { noiseZeros = z; noiseTerm = -m * math.log(z.toDouble / bigM) }
    noiseTerm
  }

  override def memoryBits: Long = array.memoryBits
}
