package repro.core

import repro.SparkSpec

class BitArraySpec extends SparkSpec {

  test("fresh array is all zero") {
    val b = new BitArray(100)
    assert(b.zeros == 100 && b.ones == 0)
    (0L until 100L).foreach(i => assert(!b.get(i)))
  }

  test("set flips exactly one bit and reports the flip") {
    val b = new BitArray(100)
    assert(b.set(42))
    assert(b.get(42) && b.zeros == 99 && b.ones == 1)
  }

  test("setting an already-set bit is a no-op") {
    val b = new BitArray(100)
    assert(b.set(7))
    assert(!b.set(7))
    assert(b.zeros == 99)
  }

  test("zero count matches a full recount after random operations") {
    val b = new BitArray(1000)
    val rng = new java.util.SplittableRandom(5)
    (0 until 5000).foreach(_ => b.set(rng.nextLong(1000)))
    assert(b.zeros == b.recountZeros())
  }

  test("word boundaries (bits 63, 64, 127) behave") {
    val b = new BitArray(130)
    val set = Set(0L, 63L, 64L, 127L, 128L, 129L)
    set.foreach(i => assert(b.set(i)))
    set.foreach(i => assert(b.get(i)))
    assert(b.zeros == 124)
    (0L until 130L).foreach(i => assert(b.bit(i) == (if (set(i)) 1 else 0), s"bit $i"))
  }

  test("sizes that are not multiples of 64 work") {
    val b = new BitArray(65)
    assert(b.set(64))
    assert(b.zeros == 64 && b.recountZeros() == 64)
  }

  test("out-of-range access throws") {
    val b = new BitArray(10)
    intercept[IllegalArgumentException](b.get(10))
    intercept[IllegalArgumentException](b.bit(-1))
    intercept[IllegalArgumentException](b.set(-1))
  }

  test("non-positive size is rejected") {
    intercept[IllegalArgumentException](new BitArray(0))
    intercept[IllegalArgumentException](new BitArray(-5))
  }

  test("sizes beyond one array's words are rejected") {
    intercept[IllegalArgumentException](new BitArray(BitArray.MaxSize + 1))
    intercept[IllegalArgumentException](new BitArray((1L << 37) + 640))
    intercept[IllegalArgumentException](new BitArray(1L << 38))
    intercept[IllegalArgumentException](new FreeBS(1L << 38))
  }

  test("memoryBits equals the declared size") {
    assert(new BitArray(123).memoryBits == 123)
  }

  test("a large array supports indices above Int.MaxValue bits/64 words") {
    val b = new BitArray(5_000_000L)
    assert(b.set(4_999_999L))
    assert(b.get(4_999_999L) && b.zeros == 4_999_999L)
  }

  test("filling the array drives zeros to 0") {
    val b = new BitArray(64)
    (0L until 64L).foreach(b.set)
    assert(b.zeros == 0 && b.ones == 64 && b.recountZeros() == 0)
  }
}
