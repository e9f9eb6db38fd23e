package repro.theory

/** The paper's exact occupancy theory for a shared bit array (exact
  * E[1/q_B] via Stirling numbers, behind Theorem 1) and its moment formulas
  * for the LPC and vHLL baselines (§III). Only the test suites read these:
  * they check the kernel's Monte Carlo moments and the baselines' bias
  * against them. The bounds the program and perfbench use are in [[Theory]].
  *
  * Same notation as [[Theory]]; `m` is a per-user (virtual) sketch size.
  */
object ExactTheory {

  /** Stirling number of the second kind τ(n, j): the number of ways to
    * partition n labelled elements into j non-empty unlabelled blocks,
    * computed via the inclusion–exclusion sum the paper quotes. Plain
    * Double arithmetic — only meant for the small (n, j) used in tests.
    */
  def stirling2(n: Int, j: Int): Double = {
    require(n >= 0 && j >= 0, s"stirling2 needs non-negative args, got ($n, $j)")
    if (j == 0) return if (n == 0) 1.0 else 0.0
    if (j > n) return 0.0
    var sum = 0.0
    var k = 0
    while (k < j) {
      val term = binomial(j, k) * math.pow(j - k, n)
      sum += (if (k % 2 == 0) term else -term)
      k += 1
    }
    sum / factorial(j)
  }

  /** Binomial coefficient C(n, k) as a Double. */
  def binomial(n: Int, k: Int): Double = {
    if (k < 0 || k > n) return 0.0
    var r = 1.0
    var i = 0
    while (i < math.min(k, n - k)) { r = r * (n - i) / (i + 1); i += 1 }
    r
  }

  private def factorial(j: Int): Double = {
    var r = 1.0
    var i = 2
    while (i <= j) { r *= i; i += 1 }
    r
  }

  /** Occupancy distribution after n uniform throws into bigM bins,
    * computed with the numerically stable forward recurrence
    * `p'(j) = p(j)·j/M + p(j−1)·(M−j+1)/M` (all terms non-negative — the
    * closed Stirling-number form the paper quotes cancels catastrophically
    * already around n ≈ 100). Index j of the result is P(exactly j ones).
    */
  def occupancy(bigM: Int, n: Int): Array[Double] = {
    require(bigM > 0 && n >= 0, s"bad occupancy args ($bigM, $n)")
    val p = new Array[Double](math.min(n, bigM) + 1)
    p(0) = 1.0
    var t = 0
    while (t < n) {
      var j = math.min(t + 1, p.length - 1)
      while (j >= 1) {
        p(j) = p(j) * j / bigM + p(j - 1) * (bigM - (j - 1)).toDouble / bigM
        j -= 1
      }
      p(0) = 0.0
      t += 1
    }
    p
  }

  /** P(exactly j of bigM bits are set after n distinct uniform throws). */
  def probOnes(bigM: Int, n: Int, j: Int): Double = {
    if (j < 0 || j > n || j > bigM) return 0.0
    occupancy(bigM, n)(j)
  }

  /** Exact E[1/q_B] after n distinct pairs: E[bigM / zeros] over the
    * occupancy distribution. Only defined while zeros > 0 is certain
    * (n < bigM keeps the j = bigM term zero-probability-free for the small
    * test sizes this is used at).
    */
  def expInvQBExact(bigM: Int, n: Int): Double = {
    require(n < bigM, s"exact E[1/q_B] requires n < bigM, got n=$n bigM=$bigM")
    val p = occupancy(bigM, n)
    var sum = 0.0
    var j = 0
    while (j < p.length && j <= bigM - 1) {
      sum += p(j) * bigM.toDouble / (bigM - j)
      j += 1
    }
    sum
  }

  /** LPC bias (§III-A): `E[n̂] − n ≈ (e^{n/m} − n/m − 1)/2`. */
  def lpcBias(ns: Double, m: Double): Double = {
    val x = ns / m
    0.5 * (math.exp(x) - x - 1.0)
  }

  /** LPC variance (§III-A): `Var ≈ m (e^{n/m} − n/m − 1)`. */
  def lpcVar(ns: Double, m: Double): Double = {
    val x = ns / m
    m * (math.exp(x) - x - 1.0)
  }

  /** vHLL approximate variance (§III-B.2). `n` is the total distinct-pair
    * count, `ns` the user's cardinality, `m` virtual registers out of `bigM`.
    */
  def vhllVar(ns: Double, n: Double, m: Double, bigM: Double): Double = {
    val f = bigM / (bigM - m)
    val load = ns + (n - ns) * m / bigM
    f * f * (1.04 * 1.04 / m * load * load +
      (n - ns) * m / bigM * (1.0 - m / bigM) +
      math.pow(1.04 * n * m, 2) / math.pow(bigM, 3))
  }
}
