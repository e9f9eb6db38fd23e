package repro.core

/** FreeRS — parameter-free register sharing (Algorithm 2 of the paper).
  *
  * One array of `m` width-`w` registers shared by all users. Edge e = (s, d)
  * hashes to register `h*(e)` and a Geometric(1/2) rank `ρ*(e)`; if the
  * register grows, the user's estimate grows by `1/q_R` where
  * `q_R = Σ_j 2^{-R[j]} / m` computed from the registers *before* the
  * update. Duplicates re-derive the same (position, rank) and never grow a
  * register. O(1) per edge.
  *
  * Fidelity note (DESIGN.md §5.1): the paper's Algorithm 2 pseudo-code
  * updates `q_R` before adding `1/q_R`, but the text and Theorem 2's
  * unbiasedness proof use the pre-update `q_R^{(t)}` — the true probability
  * that the arriving pair changes the array given the state at t−1. We
  * implement the pre-update (unbiased Horvitz–Thompson) form.
  *
  * @param m     number of shared registers (the paper's M)
  * @param width register width in bits, at most 5 (the paper's w = 5 by default)
  * @param seed  hash seed; runs are deterministic in it
  */
final class FreeRS(val m: Int, val width: Int = RegisterArray.SharedWidth,
                   val seed: Long = 29L) extends FreeSketch("FreeRS", new RegisterSlice(m, 1, width, seed)) {

  /** The shared register array `R`, with every edge fed so far applied.
    * The reference is current only until the next `update`.
    */
  def registers: RegisterArray = { flush(); slice.registers }
}
