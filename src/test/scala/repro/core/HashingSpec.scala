package repro.core

import repro.SparkSpec

class HashingSpec extends SparkSpec {

  test("mix64 is deterministic") {
    assert(Hashing.mix64(42L) == Hashing.mix64(42L))
    assert(Hashing.mix64(1L, 2L) == Hashing.mix64(1L, 2L))
    assert(Hashing.mix64(1L, 2L, 3L) == Hashing.mix64(1L, 2L, 3L))
  }

  test("mix64 separates nearby inputs") {
    val outs = (0L until 1000L).map(Hashing.mix64)
    assert(outs.distinct.size == 1000)
  }

  test("mix64 has rough avalanche: flipping one input bit flips ~half the output bits") {
    val flips = for (x <- 0L until 200L; b <- Seq(0, 17, 43)) yield
      java.lang.Long.bitCount(Hashing.mix64(x) ^ Hashing.mix64(x ^ (1L << b)))
    val mean = flips.sum.toDouble / flips.size
    assert(mean > 24 && mean < 40, s"mean flipped bits $mean far from 32")
  }

  test("two-arg mix64 depends on both arguments") {
    assert(Hashing.mix64(1L, 2L) != Hashing.mix64(2L, 1L))
    assert(Hashing.mix64(1L, 2L) != Hashing.mix64(1L, 3L))
    assert(Hashing.mix64(1L, 2L) != Hashing.mix64(3L, 2L))
  }

  test("index stays in range for adversarial hashes") {
    for (h <- Seq(Long.MinValue, -1L, 0L, 1L, Long.MaxValue); r <- Seq(1L, 7L, 1024L)) {
      val i = Hashing.index(h, r)
      assert(i >= 0 && i < r, s"index($h, $r) = $i out of range")
    }
  }

  test("Range equals floorMod on edge sizes and hashes") {
    val sizes = Seq(1L, 2L, 7L, 24L, 5_000_000L, 500_000_000L, Hashing.Range.MaxSize) ++
      (0 to 61).map(1L << _)
    for (size <- sizes.distinct) {
      val range = Hashing.Range(size)
      assert(range.size == size)
      for (h <- Seq(Long.MinValue, -1L, 0L, 1L, Long.MaxValue, size, -size, size - 1))
        assert(range(h) == java.lang.Math.floorMod(h, size), s"Range($size)($h)")
    }
  }

  test("Range rejects sizes outside [1, 2^61]") {
    intercept[IllegalArgumentException](Hashing.Range(0L))
    intercept[IllegalArgumentException](Hashing.Range(-1L))
    intercept[IllegalArgumentException](Hashing.Range(Hashing.Range.MaxSize + 1))
  }

  test("pairIndex is uniform over a small range") {
    val m = 16L
    val counts = new Array[Int](m.toInt)
    for (s <- 0L until 1000L; d <- 0L until 100L)
      counts(Hashing.pairIndex(s, d, m, 7L).toInt) += 1
    val expected = 100000.0 / m
    counts.foreach(c => assert(math.abs(c - expected) < 0.1 * expected,
      s"bin count $c deviates >10% from $expected"))
  }

  test("pairIndex depends on user, item and seed") {
    assert(Hashing.pairIndex(1L, 2L, 1 << 20, 7L) != Hashing.pairIndex(2L, 2L, 1 << 20, 7L))
    assert(Hashing.pairIndex(1L, 2L, 1 << 20, 7L) != Hashing.pairIndex(1L, 3L, 1 << 20, 7L))
    assert(Hashing.pairIndex(1L, 2L, 1 << 20, 7L) != Hashing.pairIndex(1L, 2L, 1 << 20, 8L))
  }

  test("pairRank follows Geometric(1/2): P(1) ~ 0.5") {
    val n = 100000
    var ones = 0
    for (i <- 0 until n) if (Hashing.pairRank(i.toLong, i.toLong + 7, 31, 3L) == 1) ones += 1
    val p = ones.toDouble / n
    assert(math.abs(p - 0.5) < 0.01, s"P(rank=1) = $p")
  }

  test("pairRank mean ~ 2") {
    val n = 100000
    var sum = 0L
    for (i <- 0 until n) sum += Hashing.pairRank(i.toLong, 13L, 31, 3L)
    val mean = sum.toDouble / n
    assert(math.abs(mean - 2.0) < 0.05, s"mean rank $mean")
  }

  test("pairRank respects cap") {
    for (i <- 0 until 10000) {
      val r = Hashing.pairRank(i.toLong, i.toLong, 5, 3L)
      assert(r >= 1 && r <= 5)
      val r1 = Hashing.rank(i.toLong, 5, 3L)
      assert(r1 >= 1 && r1 <= 5)
    }
  }

  test("rank of a single item is deterministic and Geometric(1/2)") {
    assert(Hashing.rank(99L, 31, 5L) == Hashing.rank(99L, 31, 5L))
    val n = 100000
    var twoPlus = 0
    for (d <- 0 until n) if (Hashing.rank(d.toLong, 31, 5L) >= 2) twoPlus += 1
    val p = twoPlus.toDouble / n
    assert(math.abs(p - 0.5) < 0.01, s"P(rank>=2) = $p")
  }

  test("userSelect produces m nearly-independent positions per user") {
    val m = 64
    val bigM = 1L << 16
    val sel = (0 until m).map(i => FloorModHashing.userSelect(123L, i, bigM, 11L))
    // With 64 draws from 65536 slots, collisions are rare: expect >= 62 distinct.
    assert(sel.distinct.size >= m - 2)
    sel.foreach(p => assert(p >= 0 && p < bigM))
  }

  test("userSelect differs across users") {
    val a = (0 until 32).map(i => FloorModHashing.userSelect(1L, i, 1L << 16, 11L))
    val b = (0 until 32).map(i => FloorModHashing.userSelect(2L, i, 1L << 16, 11L))
    assert(a != b)
  }

  test("itemIndex is deterministic, in range, and roughly uniform") {
    assert(FloorModHashing.itemIndex(5L, 1024L, 3L) == FloorModHashing.itemIndex(5L, 1024L, 3L))
    val m = 8L
    val counts = new Array[Int](m.toInt)
    for (d <- 0L until 80000L) counts(FloorModHashing.itemIndex(d, m, 3L).toInt) += 1
    counts.foreach(c => assert(math.abs(c - 10000) < 1000, s"bin $c deviates from 10000"))
  }

  test("different seeds decorrelate all hash families") {
    val matches = (0L until 1000L).count(d =>
      FloorModHashing.itemIndex(d, 1024L, 1L) == FloorModHashing.itemIndex(d, 1024L, 2L))
    assert(matches < 20, s"$matches/1000 collisions across seeds — families correlated")
  }
}
