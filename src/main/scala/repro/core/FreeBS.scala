package repro.core

/** FreeBS — parameter-free bit sharing (Algorithm 1 of the paper).
  *
  * One bit array `B` of `m` bits shared by all users. Edge e = (s, d) hashes
  * to position `h*(e)`; if the bit flips 0 → 1 the user's estimate grows by
  * `1/q_B` where `q_B = zeros(B)/m` *before* the flip — the Horvitz–Thompson
  * inverse of the probability that a new pair changes the array. Duplicate
  * edges hash to an already-set bit and change nothing. O(1) per edge.
  *
  * Unbiased with `Var ≤ n_s (E[1/q_B] − 1)` (Theorem 1); estimation range
  * `[0, m·ln m]`.
  *
  * @param m    number of shared bits (the paper's M)
  * @param seed hash seed; runs are deterministic in it
  */
final class FreeBS(val m: Long, val seed: Long = 17L) extends FreeSketch("FreeBS", new BitSlice(m, 1, seed)) {

  /** The shared bit array `B`, with every edge fed so far applied. The
    * reference is current only until the next `update`.
    */
  def bits: BitArray = { flush(); slice.bits }
}
