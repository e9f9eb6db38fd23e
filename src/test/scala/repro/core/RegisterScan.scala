package repro.core

/** O(size) cross-checks of [[RegisterArray]]'s incremental state: full scans
  * through `get`, for the suites that compare them with `sumPow2Neg` and
  * `zeros`.
  */
object RegisterScan {

  /** `Σ_j 2^{31-R[j]}`, summed exactly in a `Long`. */
  def exactSum(r: RegisterArray): Long = {
    var s = 0L
    var i = 0
    while (i < r.size) { s += 1L << (31 - r.get(i)); i += 1 }
    s
  }

  /** `Σ_j 2^{-R[j]}`: the exact sum, rounded once to a `Double`. */
  def sumPow2Neg(r: RegisterArray): Double = exactSum(r).toDouble / (1L << 31)

  /** Number of registers equal to zero. */
  def countZero(r: RegisterArray): Int = {
    var z = 0
    var i = 0
    while (i < r.size) { if (r.get(i) == 0) z += 1; i += 1 }
    z
  }
}
