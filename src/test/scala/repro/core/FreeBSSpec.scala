package repro.core

import repro.SparkSpec
import repro.theory.Theory

class FreeBSSpec extends SparkSpec {

  /** Feed n distinct pairs of user s. */
  private def feed(sk: FreeBS, s: Long, n: Int, itemBase: Long = 0L): Unit =
    (0 until n).foreach(j => sk.update(s, itemBase + j))

  test("estimate of an unseen user is 0") {
    val sk = new FreeBS(1024)
    assert(sk.estimate(99L) == 0.0)
  }

  test("single pair estimates ~1 under a nearly-empty array") {
    val sk = new FreeBS(1 << 20)
    sk.update(1L, 1L)
    // q = 1 at the first arrival, so the increment is exactly M/M = 1.
    assert(sk.estimate(1L) == 1.0)
  }

  test("lightly loaded array: estimate within 5% of truth") {
    val sk = new FreeBS(1 << 20, seed = 5)
    feed(sk, 7L, 1000)
    val est = sk.estimate(7L)
    assert(math.abs(est - 1000) < 50, s"estimate $est vs truth 1000")
  }

  test("unbiased: mean over 60 seeds close to truth under heavy load") {
    val n = 500
    val bigM = 4096L
    val ests = (0 until 60).map { seed =>
      val sk = new FreeBS(bigM, seed.toLong)
      feed(sk, 1L, n)
      sk.estimate(1L)
    }
    val mean = ests.sum / ests.size
    // std ~ sqrt(n(E[1/q]-1)) ~ 8; se of the mean over 60 runs ~ 1.1.
    assert(math.abs(mean - n) < 5, s"mean estimate $mean vs truth $n")
  }

  test("empirical variance within Theorem 1's bound (with slack)") {
    val n = 300
    val bigM = 1024L
    val ests = (0 until 100).map { seed =>
      val sk = new FreeBS(bigM, 1000L + seed)
      feed(sk, 1L, n)
      sk.estimate(1L)
    }
    val mean = ests.sum / ests.size
    val varE = ests.map(e => (e - mean) * (e - mean)).sum / (ests.size - 1)
    val bound = Theory.freeBsVarBound(n, n, bigM.toDouble)
    // The bound holds in expectation; allow 2x sampling slack over 100 runs.
    assert(varE < 2.0 * bound, s"empirical var $varE exceeds 2x bound $bound")
    assert(varE > 0.02 * bound, s"empirical var $varE implausibly small vs bound $bound")
  }

  test("duplicate edges never change the estimate") {
    val sk = new FreeBS(4096, seed = 9)
    feed(sk, 3L, 200)
    val before = sk.estimate(3L)
    feed(sk, 3L, 200) // exact replay
    assert(sk.estimate(3L) == before)
  }

  test("duplicates never change the array either") {
    val sk = new FreeBS(4096, seed = 9)
    feed(sk, 3L, 200)
    val zeros = sk.bits.zeros
    feed(sk, 3L, 200)
    assert(sk.bits.zeros == zeros)
  }

  test("per-user estimates are tracked separately and sum to the total") {
    val sk = new FreeBS(1 << 16, seed = 2)
    feed(sk, 1L, 300, itemBase = 0)
    feed(sk, 2L, 700, itemBase = 1 << 20)
    assert(math.abs(sk.estimate(1L) - 300) < 60)
    assert(math.abs(sk.estimate(2L) - 700) < 100)
    assert(math.abs(sk.estimatedTotal - (sk.estimate(1L) + sk.estimate(2L))) < 1e-6)
  }

  test("q equals the zero-bit fraction at every step") {
    val sk = new FreeBS(512, seed = 4)
    (0 until 300).foreach { j =>
      sk.update(1L, j.toLong)
      assert(sk.q == sk.bits.zeros.toDouble / 512)
    }
  }

  test("internal zero count stays consistent with a recount") {
    val sk = new FreeBS(2048, seed = 6)
    feed(sk, 5L, 3000)
    assert(sk.bits.zeros == sk.bits.recountZeros())
  }

  test("saturated array: no blow-up, estimate bounded by M·H_M") {
    val bigM = 64L
    val sk = new FreeBS(bigM, seed = 8)
    feed(sk, 1L, 2000)
    val maxPossible = (1L to bigM).map(i => bigM.toDouble / i).sum // M·H_M ≈ M ln M + γM
    val est = sk.estimate(1L)
    assert(est.isFinite && est > 0)
    assert(est <= maxPossible + 1e-9, s"estimate $est above range cap $maxPossible")
  }

  test("deterministic for a fixed seed, different across seeds") {
    def run(seed: Long): Double = {
      val sk = new FreeBS(4096, seed)
      feed(sk, 1L, 400)
      sk.estimate(1L)
    }
    assert(run(7) == run(7))
    assert(run(7) != run(8))
  }

  test("estimates are monotone non-decreasing over the stream") {
    val sk = new FreeBS(1024, seed = 3)
    var last = 0.0
    (0 until 500).foreach { j =>
      sk.update(1L, j.toLong)
      assert(sk.estimate(1L) >= last)
      last = sk.estimate(1L)
    }
  }

  test("memoryBits reports the shared array size") {
    assert(new FreeBS(12345).memoryBits == 12345)
  }

  test("rejects non-positive array size") {
    intercept[IllegalArgumentException](new FreeBS(0))
  }

  test("interleaved users: unbiased joint behaviour (mean of totals)") {
    val n1 = 200; val n2 = 200
    val ests = (0 until 40).map { seed =>
      val sk = new FreeBS(2048, 500L + seed)
      (0 until n1).foreach { j => sk.update(1L, j.toLong); sk.update(2L, (1 << 22) + j.toLong) }
      (sk.estimate(1L), sk.estimate(2L))
    }
    val m1 = ests.map(_._1).sum / ests.size
    val m2 = ests.map(_._2).sum / ests.size
    assert(math.abs(m1 - n1) < 12, s"user1 mean $m1")
    assert(math.abs(m2 - n2) < 12, s"user2 mean $m2")
  }

  test("anytime unbiased: mean over 40 seeds tracks the exact prefix counts at 25/50/75/100 %") {
    val bigM = 4096L
    val misses = Anytime.misses(new FreeBS(bigM, _)) { (ns, n) =>
      math.sqrt(Theory.freeBsVarBound(ns, n, bigM.toDouble))
    }
    assert(misses.isEmpty, misses.mkString("\n"))
  }
}
