package repro.core

import repro.SparkSpec
import repro.theory.Theory

class FreeRSSpec extends SparkSpec {

  private def feed(sk: FreeRS, s: Long, n: Int, itemBase: Long = 0L): Unit =
    (0 until n).foreach(j => sk.update(s, itemBase + j))

  test("estimate of an unseen user is 0") {
    assert(new FreeRS(1024).estimate(42L) == 0.0)
  }

  test("first pair increments by exactly 1 (q starts at 1)") {
    val sk = new FreeRS(1 << 16)
    sk.update(1L, 1L)
    assert(sk.estimate(1L) == 1.0)
  }

  test("lightly loaded: estimate within 10% of truth") {
    val sk = new FreeRS(1 << 16, seed = 5)
    feed(sk, 7L, 1000)
    val est = sk.estimate(7L)
    assert(math.abs(est - 1000) < 100, s"estimate $est vs truth 1000")
  }

  test("heavily loaded (n >> 2.5M): estimate within 15% of truth") {
    val m = 1024
    val n = 50000
    val sk = new FreeRS(m, seed = 13)
    feed(sk, 9L, n)
    val est = sk.estimate(9L)
    assert(math.abs(est - n) < 0.15 * n, s"estimate $est vs truth $n")
  }

  test("unbiased: mean over 60 seeds close to truth") {
    val n = 2000
    val m = 256
    val ests = (0 until 60).map { seed =>
      val sk = new FreeRS(m, 5, seed.toLong)
      feed(sk, 1L, n)
      sk.estimate(1L)
    }
    val mean = ests.sum / ests.size
    // Var ≈ n(1.386 n/m − 1) ≈ 2000×9.8 → std ≈ 140; se over 60 ≈ 18.
    assert(math.abs(mean - n) < 80, s"mean estimate $mean vs truth $n")
  }

  test("duplicate edges never change the estimate or the registers") {
    val sk = new FreeRS(512, seed = 9)
    feed(sk, 3L, 300)
    val before = sk.estimate(3L)
    val sum = sk.registers.sumPow2Neg
    feed(sk, 3L, 300)
    assert(sk.estimate(3L) == before)
    assert(sk.registers.sumPow2Neg == sum)
  }

  test("incremental register sum stays exactly consistent") {
    val sk = new FreeRS(512, seed = 10)
    feed(sk, 1L, 5000)
    assert(sk.registers.sumPow2Neg == RegisterScan.sumPow2Neg(sk.registers))
  }

  test("q is non-increasing over the stream") {
    val sk = new FreeRS(256, seed = 11)
    var last = 1.0
    (0 until 2000).foreach { j =>
      sk.update(1L, j.toLong)
      assert(sk.q <= last + 1e-12)
      last = sk.q
    }
  }

  test("per-user estimates sum to the tracked total") {
    val sk = new FreeRS(1024, seed = 2)
    feed(sk, 1L, 500, itemBase = 0)
    feed(sk, 2L, 800, itemBase = 1 << 22)
    assert(math.abs(sk.estimatedTotal - (sk.estimate(1L) + sk.estimate(2L))) < 1e-6)
  }

  test("two interleaved users both estimated within tolerance") {
    val sk = new FreeRS(4096, seed = 21)
    (0 until 1000).foreach { j =>
      sk.update(1L, j.toLong)
      sk.update(2L, (1 << 22) + j.toLong)
    }
    assert(math.abs(sk.estimate(1L) - 1000) < 200, s"user1 ${sk.estimate(1L)}")
    assert(math.abs(sk.estimate(2L) - 1000) < 200, s"user2 ${sk.estimate(2L)}")
  }

  test("registers saturate at 31 without breaking estimates") {
    val sk = new FreeRS(4, 5, seed = 3)
    feed(sk, 1L, 100000)
    (0 until 4).foreach(i => assert(sk.registers.get(i) <= 31))
    assert(sk.estimate(1L).isFinite && sk.estimate(1L) > 0)
  }

  test("deterministic for a fixed seed, different across seeds") {
    def run(seed: Long): Double = {
      val sk = new FreeRS(512, 5, seed)
      feed(sk, 1L, 400)
      sk.estimate(1L)
    }
    assert(run(7) == run(7))
    assert(run(7) != run(8))
  }

  test("estimates are monotone non-decreasing") {
    val sk = new FreeRS(256, seed = 4)
    var last = 0.0
    (0 until 1000).foreach { j =>
      sk.update(1L, j.toLong)
      assert(sk.estimate(1L) >= last)
      last = sk.estimate(1L)
    }
  }

  test("memoryBits = registers × width") {
    assert(new FreeRS(1000, 5).memoryBits == 5000)
  }

  test("rejects non-positive register count") {
    intercept[IllegalArgumentException](new FreeRS(0))
  }

  test("estimation range far exceeds the bit-sharing range for equal memory") {
    // 5120 bits = FreeBS(5120) range ~ M ln M ≈ 43k, vs FreeRS(1024 regs)
    // which tracks n = 200k within 20% here.
    val sk = new FreeRS(1024, 5, seed = 6)
    feed(sk, 1L, 200000)
    val est = sk.estimate(1L)
    assert(math.abs(est - 200000) < 40000, s"estimate $est vs truth 200000")
  }

  test("anytime unbiased: mean over 40 seeds tracks the exact prefix counts at 25/50/75/100 %") {
    val m = 1024
    val misses = Anytime.misses(new FreeRS(m, 5, _)) { (ns, n) =>
      // Theorem 2 holds for n > 2.5·M. Below that, q_R ≥ q_B on the same M,
      // so Theorem 1's bound applies.
      math.sqrt(if (n > 2.5 * m) Theory.freeRsVarBound(ns, n, m.toDouble)
                else Theory.freeBsVarBound(ns, n, m.toDouble))
    }
    assert(misses.isEmpty, misses.mkString("\n"))
  }
}
