package repro.baselines

import repro.SparkSpec
import repro.theory.ExactTheory

class LpcSpec extends SparkSpec {

  private def feed(sk: Lpc, s: Long, n: Int, base: Long = 0L): Unit =
    (0 until n).foreach(j => sk.update(s, base + j))

  test("unseen user estimates 0") {
    assert(new Lpc(64).estimate(1L) == 0.0)
  }

  test("small cardinality estimated accurately (n << m)") {
    val sk = new Lpc(1024, seed = 3)
    feed(sk, 1L, 100)
    val est = sk.estimate(1L)
    // std ≈ sqrt(m(e^{n/m} − n/m − 1)) ≈ 2.2 → 5σ tolerance.
    assert(math.abs(est - 100) < 11, s"estimate $est vs 100")
  }

  test("estimator bias matches theory in sign and scale") {
    val m = 64
    val n = 160 // load 2.5: predicted bias ≈ 4.3, std/√runs ≈ 1.4
    val ests = (0 until 300).map { s =>
      val sk = new Lpc(m, seed = 100 + s)
      feed(sk, 1L, n)
      sk.estimate(1L)
    }
    val mean = ests.sum / ests.size
    val predictedBias = ExactTheory.lpcBias(n, m)
    assert(mean - n > 0, s"expected positive bias, mean $mean")
    // The paper's formula is a second-order Taylor approximation; at this
    // load higher-order terms roughly double it, so check the scale only.
    assert(mean - n > 0.5 * predictedBias && mean - n < 3.0 * predictedBias,
      s"bias ${mean - n} out of scale vs predicted $predictedBias")
  }

  test("duplicates ignored") {
    val sk = new Lpc(512, seed = 5)
    feed(sk, 1L, 200)
    val before = sk.estimate(1L)
    feed(sk, 1L, 200)
    assert(sk.estimate(1L) == before)
  }

  test("users get independent sketches") {
    val sk = new Lpc(256, seed = 7)
    feed(sk, 1L, 50, base = 0)
    feed(sk, 2L, 5000, base = 1 << 20) // saturates user 2 only
    assert(math.abs(sk.estimate(1L) - 50) < 15, s"user1 ${sk.estimate(1L)}")
  }

  test("saturation caps at m·ln m") {
    val m = 64
    val sk = new Lpc(m, seed = 9)
    feed(sk, 1L, 100000)
    assert(sk.estimate(1L) == m * math.log(m.toDouble))
  }

  test("tracked counter equals a fresh estimate for per-user sketches") {
    val sk = new Lpc(256, seed = 11)
    feed(sk, 1L, 80)
    assert(sk.estimate(1L) == sk.estimateNow(1L))
  }

  test("memoryBits = allocated users × m") {
    val sk = new Lpc(128)
    feed(sk, 1L, 5); feed(sk, 2L, 5)
    assert(sk.memoryBits == 2 * 128)
  }

  test("estimateNow of an unseen user is 0") {
    assert(new Lpc(64).estimateNow(9L) == 0.0)
  }

  test("rejects non-positive m") {
    intercept[IllegalArgumentException](new Lpc(0))
  }

  test("estimate is monotone non-decreasing in the stream") {
    val sk = new Lpc(128, seed = 13)
    var last = 0.0
    (0 until 300).foreach { j =>
      sk.update(1L, j.toLong)
      assert(sk.estimate(1L) >= last - 1e-12)
      last = sk.estimate(1L)
    }
  }
}
