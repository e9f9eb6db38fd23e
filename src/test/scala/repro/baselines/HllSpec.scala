package repro.baselines

import repro.SparkSpec
import repro.core.Hashing

class HllSpec extends SparkSpec {

  test("alpha matches the paper's constants") {
    assert(Hll.alpha(16) == 0.673)
    assert(Hll.alpha(32) == 0.697)
    assert(Hll.alpha(64) == 0.709)
    assert(math.abs(Hll.alpha(128) - 0.7213 / (1 + 1.079 / 128)) < 1e-12)
    assert(math.abs(Hll.alpha(1024) - 0.715) < 0.01)
  }

  test("alpha for non-tabulated m uses the closed form and stays in (0.5, 0.8)") {
    for (m <- Seq(2, 9, 24, 100, 500)) {
      val a = Hll.alpha(m)
      assert(a > 0.3 && a < 0.8, s"alpha($m) = $a")
    }
  }

  test("rawEstimate formula: all-zero registers give alpha·m") {
    // sum 2^-0 over m registers = m, so raw = α m² / m = α m.
    assert(math.abs(Hll.rawEstimate(64, 64.0) - 0.709 * 64) < 1e-9)
  }

  test("estimate uses linear counting below 2.5m") {
    // m = 64 all zero: raw = α·64 ≈ 45 < 160 → LC with z = 64 → 0.
    assert(Hll.estimate(64, 64.0, 64) == 0.0)
    // One register set high: LC over z = 63 zeros.
    val sum = 63.0 + math.pow(2.0, -10)
    val est = Hll.estimate(64, sum, 63)
    assert(math.abs(est - 64 * math.log(64.0 / 63)) < 1e-9)
  }

  test("estimate keeps the raw value above 2.5m") {
    // All registers at 10: sum = m·2^-10, raw = α m² 2^10 / m = α m 1024 >> 2.5m.
    val m = 64
    val sum = m * math.pow(2.0, -10)
    assert(Hll.estimate(m, sum, 0) == Hll.rawEstimate(m, sum))
  }

  test("LC fallback to raw when no register is zero") {
    val m = 16
    val sum = m * math.pow(2.0, -1) // all registers at 1 → raw = α·2m < 2.5m
    assert(Hll.estimate(m, sum, 0) == Hll.rawEstimate(m, sum))
  }

  /** n items of one user through `HllPlusPlus(m, seed)`, checked against the
    * same registers rebuilt from its hashes; returns the estimate.
    */
  private def simulated(m: Int, n: Int, seed: Long): Double = {
    val sk = new HllPlusPlus(m, seed)
    val regs = new Array[Int](m)
    (0 until n).foreach { d =>
      sk.update(0L, d.toLong)
      val pos = Hashing.itemIndex(d.toLong, m.toLong, seed).toInt
      regs(pos) = math.max(regs(pos), Hashing.rank(d.toLong, 63, seed))
    }
    val est = Hll.estimate(m, regs.foldLeft(0.0)((s, r) => s + Hll.pow2Neg(r)), regs.count(_ == 0))
    assert(sk.estimate(0L) == est)
    est
  }

  test("simulated sketch: large-n accuracy within 3σ") {
    val m = 256
    val n = 50000
    val est = simulated(m, n, 3L)
    val sigma = 1.04 / math.sqrt(m.toDouble) * n
    assert(math.abs(est - n) < 3 * sigma, s"estimate $est vs $n (3σ = ${3 * sigma})")
  }

  test("simulated sketch: small-n accuracy via linear counting") {
    val n = 30
    val est = simulated(256, n, 5L)
    assert(math.abs(est - n) < 8, s"LC estimate $est vs $n")
  }

  test("Estimator(m) equals estimate(m, sum, z) by raw bits over a spread of sums and every z") {
    val rng = new scala.util.Random(17)
    for (m <- Seq(2, 16, 24, 64, 1024)) {
      val est = new Hll.Estimator(m)
      // Σ 2^-R over m registers lies in [m·2^-31, m]: every power-of-two
      // level, both sides of the 2.5·m switch, and random sums between.
      val sums = (0 to 31).map(k => m * Hll.pow2Neg(k)) ++
        Seq(m * 0.28, m * 0.2836, m * 0.29) ++ Seq.fill(40)(m * math.pow(2.0, -31 * rng.nextDouble()))
      for (sum <- sums; z <- 0 to m) {
        assert(java.lang.Double.doubleToRawLongBits(est(sum, z)) ==
          java.lang.Double.doubleToRawLongBits(Hll.estimate(m, sum, z)), s"m $m, sum $sum, z $z")
      }
    }
  }

  test("alpha rejects degenerate m") {
    intercept[IllegalArgumentException](Hll.alpha(1))
  }
}
