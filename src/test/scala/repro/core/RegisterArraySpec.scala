package repro.core

import repro.SparkSpec

class RegisterArraySpec extends SparkSpec {

  test("fresh array is all zero with sum = size") {
    val r = new RegisterArray(100, 5)
    assert(r.get(0) == 0 && r.get(99) == 0)
    assert(r.sumPow2Neg == 100.0)
    assert(RegisterScan.countZero(r) == 100)
  }

  test("update takes the max and reports growth") {
    val r = new RegisterArray(10, 5)
    assert(r.update(3, 4))
    assert(r.get(3) == 4)
    assert(!r.update(3, 2)) // smaller rank: no change
    assert(r.get(3) == 4)
    assert(r.update(3, 7))
    assert(r.get(3) == 7)
  }

  test("equal rank does not count as growth") {
    val r = new RegisterArray(10, 5)
    assert(r.update(0, 3))
    assert(!r.update(0, 3))
  }

  test("width-5 registers clamp at 31") {
    val r = new RegisterArray(4, 5)
    assert(r.maxValue == 31)
    assert(r.update(0, 100))
    assert(r.get(0) == 31)
  }

  test("incremental sum matches a full recompute exactly (width 5)") {
    val r = new RegisterArray(512, 5)
    val rng = new java.util.SplittableRandom(11)
    (0 until 10000).foreach { _ =>
      r.update(rng.nextInt(512), rng.nextInt(35))
    }
    assert(r.sumPow2Neg == RegisterScan.sumPow2Neg(r))
  }

  test("sum stays exact above 2^21 registers with ranks 27-31") {
    // A Double running sum of ≈ 2^23 cannot hold steps of 2^-31; the Long one can.
    val size = 1 << 23
    val r = new RegisterArray(size, 5)
    (0 until 1000).foreach(i => assert(r.update(i * 8387, 27 + i % 5)))
    assert(r.sumPow2Neg == RegisterScan.sumPow2Neg(r))
    assert(RegisterScan.exactSum(r) ==
      (size - 1000).toLong * (1L << 31) + (0 until 1000).map(i => 1L << (4 - i % 5)).sum)
  }

  test("countZero tracks the number of untouched registers") {
    val r = new RegisterArray(16, 5)
    r.update(2, 1); r.update(9, 5); r.update(2, 3)
    assert(RegisterScan.countZero(r) == 14)
  }

  test("incremental zero count matches the scan under random load") {
    val r = new RegisterArray(128, 5)
    val rng = new java.util.SplittableRandom(19)
    (0 until 3000).foreach(_ => r.update(rng.nextInt(128), rng.nextInt(8)))
    assert(r.zeros == RegisterScan.countZero(r))
  }

  test("rank 0 never changes anything") {
    val r = new RegisterArray(8, 5)
    assert(!r.update(5, 0))
    assert(r.sumPow2Neg == 8.0)
  }

  test("out-of-range and invalid arguments throw") {
    val r = new RegisterArray(8, 5)
    intercept[IllegalArgumentException](r.get(8))
    intercept[IllegalArgumentException](r.update(-1, 3))
    intercept[IllegalArgumentException](r.update(0, -2))
    intercept[IllegalArgumentException](new RegisterArray(0, 5))
    intercept[IllegalArgumentException](new RegisterArray(8, 6))
    intercept[IllegalArgumentException](new RegisterArray(8, 7))
    intercept[IllegalArgumentException](new RegisterArray(8, 0))
  }

  test("memoryBits = size × width") {
    assert(new RegisterArray(100, 5).memoryBits == 500)
  }

  test("sum decreases monotonically under growth updates") {
    val r = new RegisterArray(32, 5)
    var last = r.sumPow2Neg
    val rng = new java.util.SplittableRandom(3)
    (0 until 200).foreach { _ =>
      r.update(rng.nextInt(32), rng.nextInt(20))
      assert(r.sumPow2Neg <= last + 1e-12)
      last = r.sumPow2Neg
    }
  }
}
