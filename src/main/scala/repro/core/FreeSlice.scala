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
  */
sealed abstract class FreeSlice(val bigM: Long, val slices: Int, val seed: Long)
    extends Serializable {

  /** Number of positions in this slice. */
  val size: Long = FreeSlice.sliceSize(bigM, slices)

  private val range = Hashing.Range(bigM)

  /** Local position `h*(e) div slices` of pair (s, d) within its slice. */
  final def local(s: Long, d: Long): Long = Hashing.pairIndex(s, d, range, seed) / slices

  /** Offer pair (s, d): the HT increment `1/q` if the array changed, else 0.0. */
  def offer(s: Long, d: Long): Double

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

/** FreeBS slice (Algorithm 1): a bit array; `q_B = zeros / size`. */
final class BitSlice(bigM: Long, slices: Int, seed: Long) extends FreeSlice(bigM, slices, seed) {
  val bits = new BitArray(size)

  override def offer(s: Long, d: Long): Double = {
    val zeros = bits.zeros // q_B = zeros / size, the pre-flip probability
    if (bits.set(local(s, d))) size.toDouble / zeros else 0.0
  }

  override def q: Double = bits.zeros.toDouble / size

  override def memoryBits: Long = bits.memoryBits
}

/** FreeRS slice (Algorithm 2): width-`width` registers; `q_R = Σ_j 2^{-R[j]} / size`. */
final class RegisterSlice(bigM: Int, slices: Int, width: Int, seed: Long)
    extends FreeSlice(bigM.toLong, slices, seed) {
  val registers = new RegisterArray(size.toInt, width)

  override def offer(s: Long, d: Long): Double = {
    val sumPow2Neg = registers.sumPow2Neg // q_R^{(t)}: pre-update change probability
    if (registers.update(local(s, d).toInt, Hashing.pairRank(s, d, registers.maxValue, seed)))
      1.0 / (sumPow2Neg / size)
    else 0.0
  }

  override def q: Double = registers.sumPow2Neg / size

  override def memoryBits: Long = registers.memoryBits
}
