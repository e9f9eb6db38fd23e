package repro.baselines

import repro.SparkSpec
import repro.core.RegisterScan

class VhllSpec extends SparkSpec {

  private def feed(sk: Vhll, s: Long, n: Int, base: Long = 0L): Unit =
    (0 until n).foreach(j => sk.update(s, base + j))

  test("unseen user estimates 0") {
    assert(new Vhll(1 << 14, 64).estimate(1L) == 0.0)
  }

  test("noise-free regime (single user, huge M): behaves like HLL") {
    val sk = new Vhll(1 << 16, 256, seed = 3)
    val n = 5000
    feed(sk, 1L, n)
    val est = sk.estimate(1L)
    // σ ≈ 1.04/√256 = 6.5%; allow 4σ.
    assert(math.abs(est - n) < 0.26 * n, s"estimate $est vs $n")
  }

  test("small cardinality via the linear-counting switch") {
    val sk = new Vhll(1 << 16, 256, seed = 5)
    feed(sk, 1L, 25)
    assert(math.abs(sk.estimate(1L) - 25) < 12, s"estimate ${sk.estimate(1L)}")
  }

  test("noise correction keeps a small user reasonable under cross-traffic") {
    val sk = new Vhll(1 << 14, 128, seed = 7)
    feed(sk, 1L, 50, base = 0)
    (0 until 200).foreach(u => feed(sk, 100L + u, 100, base = (u + 1).toLong << 32))
    feed(sk, 1L, 1, base = 1L << 40)
    val est = sk.estimate(1L)
    assert(math.abs(est - 51) < 80, s"corrected estimate $est vs 51")
  }

  test("estimates never go negative (clamped)") {
    val sk = new Vhll(2048, 64, seed = 9)
    (0 until 100).foreach(u => feed(sk, 10L + u, 50, base = (u + 1).toLong << 32))
    feed(sk, 1L, 1, base = 1L << 41)
    assert(sk.estimate(1L) >= 0.0)
  }

  test("large cardinalities tracked far beyond the bit-sharing range") {
    val sk = new Vhll(1 << 14, 512, seed = 11)
    val n = 100000
    feed(sk, 1L, n)
    val est = sk.estimate(1L)
    assert(math.abs(est - n) < 0.25 * n, s"estimate $est vs $n")
  }

  test("counter freezes at the user's last arrival (§V-B semantics)") {
    val sk = new Vhll(1 << 12, 64, seed = 13)
    feed(sk, 1L, 100)
    val counter = sk.estimate(1L)
    (0 until 200).foreach(u => feed(sk, 50L + u, 200, base = (u + 1).toLong << 32))
    assert(sk.estimate(1L) == counter)
    assert(sk.estimateNow(1L) != counter)
  }

  test("duplicates do not move the counter") {
    val sk = new Vhll(1 << 12, 64, seed = 15)
    feed(sk, 1L, 100)
    val before = sk.estimate(1L)
    feed(sk, 1L, 100)
    assert(sk.estimate(1L) == before)
  }

  test("memoryBits = registers × width") {
    assert(new Vhll(1000, 64).memoryBits == 5000)
  }

  test("rejects invalid m") {
    intercept[IllegalArgumentException](new Vhll(1024, 0))
    intercept[IllegalArgumentException](new Vhll(1024, 1))
    intercept[IllegalArgumentException](new Vhll(1024, 1024))
  }

  test("deterministic per seed") {
    def run(seed: Long): Double = {
      val sk = new Vhll(1 << 12, 64, seed)
      feed(sk, 1L, 300)
      sk.estimate(1L)
    }
    assert(run(5) == run(5))
  }

  test("incremental global register sum stays exact under load") {
    val sk = new Vhll(4096, 64, seed = 17)
    (0 until 50).foreach(u => feed(sk, u.toLong, 500, base = (u + 1).toLong << 32))
    assert(sk.registers.sumPow2Neg == RegisterScan.sumPow2Neg(sk.registers))
  }
}
