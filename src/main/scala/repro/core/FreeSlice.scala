package repro.core

/** One slice of FreeBS/FreeRS's shared array: the Horvitz–Thompson kernel
  * that every execution mode runs (DESIGN.md §3).
  *
  * The shared array of `bigM` positions is split into `slices` disjoint
  * slices of size `bigM / slices`. Pair e = (s, d) belongs to slice
  * `h*(e) mod slices` ([[FreeSlice.key]]) at local position
  * `h*(e) div slices` ([[local]]). Offering a pair to its slice updates the
  * slice's array and returns the HT increment `1/q`, where q is the slice's
  * change probability *before* the update, or 0.0 if the array did not
  * change. Sequential FreeBS/FreeRS are the case `slices = 1`. Serializable,
  * so that Structured Streaming can keep a kernel as group state.
  *
  * Each slice type writes the HT step once, as [[step]] at an [[address]]
  * that packs the pair's hashes. `offer` runs these two, and so does
  * [[FreeSketch]] (`address` on arrival, `step` in its block loop), so the
  * two paths cannot drift apart.
  */
sealed abstract class FreeSlice(val bigM: Long, val slices: Int, val seed: Long)
    extends Serializable {

  /** Number of positions in this slice. */
  val size: Long = FreeSlice.sliceSize(bigM, slices)

  private val range = Hashing.Range(bigM)

  /** Local position `h*(e) div slices` of pair (s, d) within its slice. */
  final def local(s: Long, d: Long): Long = Hashing.pairIndex(s, d, range, seed) / slices

  /** Everything [[step]] needs of pair (s, d): a pure function of the pair. */
  private[core] def address(s: Long, d: Long): Long

  /** The HT step at `address`: updates the array and returns `1/q` (q taken
    * before the update) if the array changed, else 0.0.
    */
  private[core] def step(address: Long): Double

  /** Offer pair (s, d): the HT increment `1/q` if the array changed, else 0.0. */
  final def offer(s: Long, d: Long): Double = step(address(s, d))

  /** Current change probability q of this slice. */
  def q: Double

  /** Memory footprint of the slice's array in bits. */
  def memoryBits: Long
}

object FreeSlice {

  /** Slice size `bigM / slices`; fails unless slices evenly divide bigM. */
  def sliceSize(bigM: Long, slices: Int): Long = {
    require(slices > 0 && bigM >= slices && bigM % slices == 0,
      s"bigM=$bigM must be a positive multiple of slices=$slices")
    bigM / slices
  }

  /** Slice `h*(e) mod slices` that pair (s, d) belongs to, with `h*` over
    * `range = Hashing.Range(bigM)`.
    */
  def key(s: Long, d: Long, range: Hashing.Range, slices: Int, seed: Long): Int =
    (Hashing.pairIndex(s, d, range, seed) % slices).toInt
}

/** FreeBS slice (Algorithm 1): a bit array; `q_B = zeros / size`. The
  * address is the local position.
  */
final class BitSlice(bigM: Long, slices: Int, seed: Long) extends FreeSlice(bigM, slices, seed) {
  val bits = new BitArray(size)

  override private[core] def address(s: Long, d: Long): Long = local(s, d)

  override private[core] def step(address: Long): Double = {
    val zeros = bits.zeros // q_B = zeros / size, the pre-flip probability
    if (bits.set(address)) size.toDouble / zeros else 0.0
  }

  override def q: Double = bits.zeros.toDouble / size

  override def memoryBits: Long = bits.memoryBits
}

/** FreeRS slice (Algorithm 2): width-`width` registers; `q_R = Σ_j 2^{-R[j]} / size`.
  * The address is the rank `ρ*(e)` in the high 32 bits and the local
  * position, below 2^31, in the low 32.
  */
final class RegisterSlice(bigM: Int, slices: Int, width: Int, seed: Long)
    extends FreeSlice(bigM.toLong, slices, seed) {
  val registers = new RegisterArray(size.toInt, width)

  override private[core] def address(s: Long, d: Long): Long =
    (Hashing.pairRank(s, d, registers.maxValue, seed).toLong << 32) | local(s, d)

  override private[core] def step(address: Long): Double = {
    val sumPow2Neg = registers.sumPow2Neg // q_R^{(t)}: pre-update change probability
    if (registers.update(address.toInt, (address >>> 32).toInt)) 1.0 / (sumPow2Neg / size)
    else 0.0
  }

  override def q: Double = registers.sumPow2Neg / size

  override def memoryBits: Long = registers.memoryBits
}
