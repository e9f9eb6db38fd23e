package repro.baselines

import repro.SparkSpec

class CseSpec extends SparkSpec {

  private def feed(sk: Cse, s: Long, n: Int, base: Long = 0L): Unit =
    (0 until n).foreach(j => sk.update(s, base + j))

  test("unseen user estimates 0") {
    assert(new Cse(1 << 16, 64).estimate(1L) == 0.0)
  }

  test("noise-free regime (single user, huge M): behaves like LPC") {
    val sk = new Cse(1 << 20, 1024, seed = 3)
    feed(sk, 1L, 200)
    val est = sk.estimate(1L)
    assert(math.abs(est - 200) < 25, s"estimate $est vs 200")
  }

  test("noise correction keeps a small user reasonable under cross-traffic") {
    val sk = new Cse(1 << 16, 256, seed = 5)
    feed(sk, 1L, 50, base = 0)
    // Flood with other users' pairs: 20k distinct pairs from 200 users.
    (0 until 200).foreach(u => feed(sk, 100L + u, 100, base = (u + 1).toLong << 32))
    feed(sk, 1L, 1, base = 1 << 30) // one more arrival refreshes user 1's counter
    val est = sk.estimate(1L)
    assert(math.abs(est - 51) < 60, s"corrected estimate $est vs 51")
  }

  test("estimates never go negative (clamped)") {
    val sk = new Cse(4096, 64, seed = 7)
    // heavy global load → large noise term for a 1-item user
    (0 until 100).foreach(u => feed(sk, 10L + u, 30, base = (u + 1).toLong << 32))
    feed(sk, 1L, 1, base = 1L << 40)
    assert(sk.estimate(1L) >= 0.0)
  }

  test("virtual sketch saturation caps the estimate at m·ln m") {
    val m = 64
    val sk = new Cse(1 << 16, m, seed = 9)
    feed(sk, 1L, 50000)
    assert(sk.estimate(1L) == m * math.log(m.toDouble))
  }

  test("estimates stay within the range cap m·ln m for any load") {
    val m = 32
    val sk = new Cse(1 << 14, m, seed = 11)
    (0 until 50).foreach(u => feed(sk, u.toLong, 2000, base = (u + 1).toLong << 32))
    (0 until 50).foreach(u =>
      assert(sk.estimate(u.toLong) <= m * math.log(m.toDouble) + 1e-9))
  }

  test("counter freezes at the user's last arrival (§V-B semantics)") {
    val sk = new Cse(1 << 14, 128, seed = 13)
    feed(sk, 1L, 100)
    val counter = sk.estimate(1L)
    // Other users' noise changes a *fresh* estimate but not the counter.
    (0 until 100).foreach(u => feed(sk, 50L + u, 200, base = (u + 1).toLong << 32))
    assert(sk.estimate(1L) == counter)
    assert(sk.estimateNow(1L) != counter)
  }

  test("duplicates do not move the frozen counter") {
    val sk = new Cse(1 << 16, 128, seed = 15)
    feed(sk, 1L, 100)
    val before = sk.estimate(1L)
    feed(sk, 1L, 100)
    assert(sk.estimate(1L) == before)
  }

  test("memoryBits reports the shared array size only") {
    assert(new Cse(123456, 64).memoryBits == 123456)
  }

  test("rejects invalid m") {
    intercept[IllegalArgumentException](new Cse(1024, 0))
    intercept[IllegalArgumentException](new Cse(1024, 1))
    intercept[IllegalArgumentException](new Cse(1024, 2048))
  }

  test("deterministic per seed") {
    def run(seed: Long): Double = {
      val sk = new Cse(1 << 14, 64, seed)
      feed(sk, 1L, 100)
      sk.estimate(1L)
    }
    assert(run(5) == run(5))
  }

  test("approximately unbiased in the moderate regime (mean over seeds)") {
    val n = 150
    val ests = (0 until 50).map { seed =>
      val sk = new Cse(1 << 15, 512, 300L + seed)
      feed(sk, 1L, n)
      (0 until 30).foreach(u => feed(sk, 10L + u, 100, base = (u + 1).toLong << 32))
      feed(sk, 1L, 1, base = 1L << 40)
      sk.estimate(1L)
    }
    val mean = ests.sum / ests.size
    assert(math.abs(mean - (n + 1)) < 25, s"mean $mean vs ${n + 1}")
  }
}
