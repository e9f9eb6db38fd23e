package repro.core

/** Hashing substrate shared by every sketch in this repo.
  *
  * All hash functions are built from a splitmix64-style finalizer over
  * 64-bit inputs, seeded so that distinct logical hash functions (the
  * pair hash `h*`, the geometric rank `ρ*`, CSE/vHLL's per-user
  * selectors `f_i(s)` and item hashes `h(d)`, `ρ(d)`) are mutually
  * independent for all practical purposes. Everything is deterministic
  * in the seed, which the test suites rely on.
  */
object Hashing {

  /** splitmix64 finalizer: a bijective 64-bit mixer with good avalanche. */
  def mix64(x0: Long): Long = {
    var x = x0 + 0x9e3779b97f4a7c15L
    x = (x ^ (x >>> 30)) * 0xbf58476d1ce4e5b9L
    x = (x ^ (x >>> 27)) * 0x94d049bb133111ebL
    x ^ (x >>> 31)
  }

  /** Mix two 64-bit values (e.g. a user id and an item id) into one hash. */
  def mix64(a: Long, b: Long): Long = mix64(mix64(a) ^ (b * 0xff51afd7ed558ccdL))

  /** Mix three 64-bit values (seed, user, function index …). */
  def mix64(a: Long, b: Long, c: Long): Long = mix64(mix64(a, b) ^ mix64(c + ThirdSalt))

  private final val ThirdSalt = 0x2545f4914f6cdd1dL
  private final val SelectSalt = 0x632be59bd9b4e019L
  private final val ItemSalt = 0x9e3779b97f4a7c15L

  /** Uniform index in `[0, range)` from a 64-bit hash (modulo bias is
    * `range / 2^64`, negligible for every range used here).
    */
  def index(hash: Long, range: Long): Long = java.lang.Math.floorMod(hash, range)

  /** [[index]] for one fixed `size`, without a 64-bit divide:
    * `Range(size)(hash) == index(hash, size)` for every `Long` hash.
    *
    * The quotient of the unsigned hash by `size` is estimated with one
    * unsigned multiply-high by `⌊(2^64 − 1)/size⌋`; the estimate is the
    * quotient or one less, so one conditional subtraction makes the
    * remainder exact. A negative hash is `2^64` less than its unsigned
    * value, so `2^64 mod size` is subtracted from its remainder and `size`
    * added back if that went below zero. Both corrections are branch-free
    * (DESIGN.md §2). Build one per array size, once, and keep it.
    */
  final class Range(val size: Long) extends Serializable {
    require(size >= 1 && size <= Range.MaxSize, s"range size must be in [1, 2^61], got $size")

    private val inverse = java.lang.Long.divideUnsigned(-1L, size)
    private val wrap = { val c = java.lang.Long.remainderUnsigned(-1L, size) + 1; if (c == size) 0L else c }

    def apply(hash: Long): Long = {
      // Unsigned multiply-high of hash and inverse (JDK 17 has only the signed one).
      val quotient = Math.multiplyHigh(hash, inverse) + ((hash >> 63) & inverse) + ((inverse >> 63) & hash)
      var rem = hash - quotient * size - size // the unsigned remainder minus size, in [−size, size)
      rem += size & (rem >> 63)
      rem -= wrap & (hash >> 63)
      rem + (size & (rem >> 63))
    }
  }

  object Range {

    /** Largest size: it keeps every intermediate remainder far below 2^63. */
    val MaxSize: Long = 1L << 61

    def apply(size: Long): Range = new Range(size)
  }

  /** `h*(e)`: uniform position in `[0, m)` for user–item pair (s, d). */
  def pairIndex(s: Long, d: Long, m: Long, seed: Long): Long =
    index(mix64(seed, s, d), m)

  /** [[pairIndex]] over a prebuilt range. */
  def pairIndex(s: Long, d: Long, range: Range, seed: Long): Long =
    range(mix64(seed, s, d))

  /** Geometric(1/2) rank in {1, 2, …}: `P(ρ = k) = 2^-k`, derived from the
    * leading-zero count of an independent 64-bit hash. Capped at `cap`
    * (the register saturation value, e.g. 31 for 5-bit registers).
    */
  def pairRank(s: Long, d: Long, cap: Int, seed: Long): Int = {
    val h = mix64(seed ^ 0x5851f42d4c957f2dL, s, d)
    math.min(java.lang.Long.numberOfLeadingZeros(h) + 1, cap)
  }

  /** Geometric(1/2) rank of a single value (vHLL/HLL hash items only). */
  def rank(d: Long, cap: Int, seed: Long): Int = {
    val h = mix64(seed ^ 0x5851f42d4c957f2dL, d)
    math.min(java.lang.Long.numberOfLeadingZeros(h) + 1, cap)
  }

  /** `f_i(s)`: the i-th independent user-selector hash of CSE/vHLL,
    * uniform in `[0, range)`.
    */
  def userSelect(s: Long, i: Int, range: Long, seed: Long): Long =
    index(mix64(seed + SelectSalt, s, i.toLong), range)

  /** The per-user half of `f_i(s)`, computed once per update by CSE/vHLL:
    * `userSelect(userKey(s, seed), selectorKey(i), Range(r)) == userSelect(s, i, r, seed)`.
    */
  def userKey(s: Long, seed: Long): Long = mix64(seed + SelectSalt, s)

  /** The per-selector half of `f_i(s)`, independent of user and seed. */
  def selectorKey(i: Int): Long = mix64(i.toLong + ThirdSalt)

  /** `f_i(s)` from its two halves, over a prebuilt range. */
  def userSelect(userKey: Long, selectorKey: Long, range: Range): Long =
    range(mix64(userKey ^ selectorKey))

  /** `h(d)`: uniform item hash in `[0, m)` used by LPC/CSE/vHLL/HLL. */
  def itemIndex(d: Long, m: Long, seed: Long): Long =
    index(mix64(seed + ItemSalt, d), m)

  /** [[itemIndex]] over a prebuilt range. */
  def itemIndex(d: Long, range: Range, seed: Long): Long =
    range(mix64(seed + ItemSalt, d))
}
