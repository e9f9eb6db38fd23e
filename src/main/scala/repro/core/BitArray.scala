package repro.core

/** A packed mutable bit array of `size` bits with a tracked zero count.
  *
  * This is the shared-array substrate of FreeBS and CSE: O(1) `set`/`get`,
  * and `zeros` maintained incrementally so the Horvitz–Thompson probability
  * `q_B = zeros / size` is available in O(1) at every step.
  */
final class BitArray(val size: Long) {
  require(size > 0 && size <= BitArray.MaxSize,
    s"bit array size must be in [1, ${BitArray.MaxSize}], got $size")

  private val words = new Array[Long](((size + 63) >>> 6).toInt)
  private var zeroCount: Long = size

  /** Number of bits still zero. */
  def zeros: Long = zeroCount

  /** Number of bits set to one. */
  def ones: Long = size - zeroCount

  /** Bit `i` as 0 or 1, so a scan can count set bits without a branch. */
  def bit(i: Long): Int = {
    require(i >= 0 && i < size, s"bit index $i out of [0, $size)")
    (words((i >>> 6).toInt) >>> (i & 63)).toInt & 1
  }

  /** True if bit `i` is set. */
  def get(i: Long): Boolean = bit(i) != 0

  /** Set bit `i`; returns true iff the bit flipped 0 → 1. */
  def set(i: Long): Boolean = {
    require(i >= 0 && i < size, s"bit index $i out of [0, $size)")
    val w = (i >>> 6).toInt
    val mask = 1L << (i & 63)
    if ((words(w) & mask) == 0) {
      words(w) |= mask
      zeroCount -= 1
      true
    } else false
  }

  /** Recount zeros from the raw words (O(size/64)); test cross-check. */
  def recountZeros(): Long = {
    var ones = 0L
    var w = 0
    while (w < words.length) { ones += java.lang.Long.bitCount(words(w)); w += 1 }
    size - ones
  }

  /** Memory footprint in bits (the quantity the paper budgets by). */
  def memoryBits: Long = size
}

object BitArray {

  /** Largest size: 64 bits per word, at most `Int.MaxValue − 8` words (the
    * JDK's soft array limit).
    */
  val MaxSize: Long = 64L * (Int.MaxValue - 8)
}
