package repro.theory

import repro.SparkSpec
import repro.core.BitSlice

class TheorySpec extends SparkSpec {

  test("Stirling numbers of the second kind: known values") {
    assert(ExactTheory.stirling2(0, 0) == 1.0)
    assert(ExactTheory.stirling2(4, 2) == 7.0)
    assert(ExactTheory.stirling2(5, 3) == 25.0)
    assert(ExactTheory.stirling2(6, 3) == 90.0)
    (1 to 8).foreach { n =>
      assert(ExactTheory.stirling2(n, 1) == 1.0)
      assert(ExactTheory.stirling2(n, n) == 1.0)
    }
    assert(ExactTheory.stirling2(3, 5) == 0.0)
  }

  test("binomial coefficients: known values") {
    assert(ExactTheory.binomial(5, 2) == 10.0)
    assert(ExactTheory.binomial(10, 0) == 1.0)
    assert(ExactTheory.binomial(10, 10) == 1.0)
    assert(ExactTheory.binomial(10, 11) == 0.0)
    assert(ExactTheory.binomial(52, 5) == 2598960.0)
  }

  test("occupancy recurrence agrees with the closed Stirling-number form") {
    // P(j ones | n throws, M bins) = C(M,j)·j!·τ(n,j)/M^n for small sizes.
    for ((bigM, n) <- Seq((8, 5), (12, 9), (16, 6)); j <- 0 to n) {
      // C(M,j)·j! is the falling factorial M·(M−1)···(M−j+1).
      var fall = 1.0
      (0 until j).foreach(i => fall *= (bigM - i))
      val closed = fall * ExactTheory.stirling2(n, j) / math.pow(bigM, n)
      val dp = ExactTheory.probOnes(bigM, n, j)
      assert(math.abs(dp - closed) < 1e-12, s"M=$bigM n=$n j=$j dp=$dp closed=$closed")
    }
  }

  test("occupancy at extreme loads stays a distribution") {
    val p = ExactTheory.occupancy(64, 1000) // load ~15.6: essentially all ones
    assert(math.abs(p.sum - 1.0) < 1e-9)
    assert(p.last > 0.99) // P(all 64 bins hit) ~ 1
  }

  test("occupancy distribution sums to 1") {
    for ((bigM, n) <- Seq((8, 5), (16, 10), (32, 20))) {
      val total = (0 to n).map(j => ExactTheory.probOnes(bigM, n, j)).sum
      assert(math.abs(total - 1.0) < 1e-9, s"Σ probOnes($bigM,$n) = $total")
    }
  }

  /** A fresh FreeBS kernel after n distinct pairs, hashed with `seed`. */
  private def filled(bigM: Int, n: Int, seed: Long): BitSlice = {
    val slice = new BitSlice(bigM.toLong, 1, seed)
    (0 until n).foreach(d => slice.offer(1L, d.toLong))
    slice
  }

  test("occupancy distribution matches Monte Carlo (M=8, n=5)") {
    val bigM = 8; val n = 5; val trials = 200000
    val hist = new Array[Int](bigM + 1)
    (0 until trials).foreach(trial => hist(filled(bigM, n, trial.toLong).bits.ones.toInt) += 1)
    (1 to 5).foreach { j =>
      val emp = hist(j).toDouble / trials
      val theo = ExactTheory.probOnes(bigM, n, j)
      assert(math.abs(emp - theo) < 0.01, s"j=$j emp=$emp theo=$theo")
    }
  }

  test("exact E[1/q_B] matches Monte Carlo (M=32, n=10)") {
    val bigM = 32; val n = 10; val trials = 100000
    var acc = 0.0
    (0 until trials).foreach(trial => acc += 1.0 / filled(bigM, n, trial.toLong).q)
    val mc = acc / trials
    val exact = ExactTheory.expInvQBExact(bigM, n)
    assert(math.abs(mc - exact) < 0.02, s"MC $mc vs exact $exact")
  }

  test("the paper's Taylor approximation of E[1/q_B] is close to exact") {
    for ((bigM, n) <- Seq((256, 50), (256, 128), (128, 64))) {
      val exact = ExactTheory.expInvQBExact(bigM, n)
      val approx = Theory.expInvQBApprox(bigM.toDouble, n.toDouble)
      assert(math.abs(exact - approx) / exact < 0.02,
        s"M=$bigM n=$n exact=$exact approx=$approx")
    }
  }

  test("E[1/q_B] grows with the load and is ≥ 1") {
    var last = 1.0
    for (n <- Seq(0, 100, 500, 1000, 2000)) {
      val v = Theory.expInvQBApprox(1024, n.toDouble)
      assert(v >= last - 1e-12, s"not monotone at n=$n")
      last = v
    }
    assert(Theory.expInvQBApprox(1024, 0.0) == 1.0 || math.abs(Theory.expInvQBApprox(1024, 0.0) - 1.0) < 1e-12)
  }

  test("Theorem 1 variance bound is non-negative and grows with n_s") {
    assert(Theory.freeBsVarBound(0, 1000, 4096) == 0.0)
    val a = Theory.freeBsVarBound(100, 1000, 4096)
    val b = Theory.freeBsVarBound(200, 1000, 4096)
    assert(a >= 0 && b > a)
  }

  test("LPC bias and variance are positive and grow with load") {
    assert(ExactTheory.lpcBias(100, 1024) > 0)
    assert(ExactTheory.lpcVar(100, 1024) > 0)
    assert(ExactTheory.lpcBias(500, 1024) > ExactTheory.lpcBias(100, 1024))
    assert(ExactTheory.lpcVar(500, 1024) > ExactTheory.lpcVar(100, 1024))
  }

  test("vHLL variance formula is positive and decreasing in memory") {
    val v1 = ExactTheory.vhllVar(1000, 100000, 1024, 1 << 17)
    val v2 = ExactTheory.vhllVar(1000, 100000, 1024, 1 << 20)
    assert(v1 > 0 && v2 > 0 && v2 < v1)
  }

  test("FreeRS bound ~ 1.386 n n_s / M in the heavy regime") {
    val v = Theory.freeRsVarBound(1000, 1000000, 100000)
    assert(math.abs(v - 1000 * (1.386 * 10 - 1)) < 1e-6)
  }

  test("exact E[1/q_B] rejects n ≥ M") {
    intercept[IllegalArgumentException](ExactTheory.expInvQBExact(8, 8))
  }
}
