package repro.theory

/** The paper's variance bounds for FreeBS and FreeRS (Theorems 1–2) and the
  * approximations of E[1/q] they rest on. perfbench's anytime checks read
  * them to size their tolerances, and the test suites hold the sketches'
  * empirical moments against them. The exact occupancy theory and the
  * baselines' moments, which only tests read, live in the test sources.
  *
  * All quantities are in the paper's notation: `bigM` is the shared array
  * size, `n` the number of distinct pairs seen so far, `ns` one user's true
  * cardinality.
  */
object Theory {

  /** The paper's Taylor approximation of E[1/q_B]:
    * `e^{n/M} (1 + (e^{n/M} − n/M − 1)/M)`.
    */
  def expInvQBApprox(bigM: Double, n: Double): Double = {
    val x = n / bigM
    math.exp(x) * (1.0 + (math.exp(x) - x - 1.0) / bigM)
  }

  /** Theorem 1 variance bound for FreeBS: `Var ≤ n_s (E[1/q_B(t)] − 1)`. */
  def freeBsVarBound(ns: Double, n: Double, bigM: Double): Double =
    ns * (expInvQBApprox(bigM, n) - 1.0)

  /** The paper's approximation of E[1/q_R] ≈ 1.386·n/M (valid n > 2.5M). */
  def expInvQRApprox(bigM: Double, n: Double): Double = 1.386 * n / bigM

  /** Theorem 2 variance bound for FreeRS in the n > 2.5M regime:
    * `Var ≲ 1.386·n·n_s/M`.
    */
  def freeRsVarBound(ns: Double, n: Double, bigM: Double): Double =
    ns * math.max(0.0, expInvQRApprox(bigM, n) - 1.0)
}
