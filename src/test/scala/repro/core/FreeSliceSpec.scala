package repro.core

import org.apache.spark.SparkConf
import org.apache.spark.serializer.KryoSerializer
import repro.SparkSpec

class FreeSliceSpec extends SparkSpec {

  test("BitSlice.offer returns size/zeros on a flip and 0.0 on a repeated pair") {
    val k = new BitSlice(256L, 1, 17L)
    var flips = 0
    (0L until 200L).foreach { d =>
      val zeros = k.bits.zeros
      val fresh = !k.bits.get(k.local(1L, d))
      val inc = k.offer(1L, d)
      if (fresh) { flips += 1; assert(inc == k.size.toDouble / zeros, s"pair $d") }
      else assert(inc == 0.0, s"pair $d")
      assert(k.offer(1L, d) == 0.0, s"repeated pair $d")
    }
    assert(flips > 100 && flips < 200, s"$flips flips")
  }

  test("RegisterSlice.offer returns 1/(sumPow2Neg/size) on a grow and 0.0 otherwise") {
    val k = new RegisterSlice(64, 1, 2, 29L)
    val regs = k.registers
    var grows = 0
    var clampedRepeats = 0
    (0L until 2000L).foreach { d =>
      val sumPow2Neg = regs.sumPow2Neg
      val i = k.local(3L, d).toInt
      val old = regs.get(i)
      val r = math.min(Hashing.pairRank(3L, d, regs.maxValue, 29L), regs.maxValue)
      val inc = k.offer(3L, d)
      if (r > old) { grows += 1; assert(inc == 1.0 / (sumPow2Neg / k.size), s"pair $d") }
      else {
        assert(inc == 0.0, s"pair $d")
        if (old == regs.maxValue) clampedRepeats += 1
      }
    }
    assert(grows > 64, s"$grows grows")
    assert(clampedRepeats > 0, "no pair met a register clamped at maxValue")
    assert(k.q == regs.sumPow2Neg / 64)
  }

  test("local · P + slice gives back the global h*(e)") {
    val bigM = 1L << 12
    for (p <- Seq(1, 2, 8, 64)) {
      val k = new BitSlice(bigM, p, 17L)
      for (s <- 0L until 20L; d <- 0L until 50L) {
        val local = k.local(s, d)
        assert(local >= 0 && local < k.size)
        assert(local * p + FreeSlice.key(s, d, Hashing.Range(bigM), p, 17L) == Hashing.pairIndex(s, d, bigM, 17L),
          s"P=$p pair ($s, $d)")
      }
    }
  }

  test("a part-filled kernel continues bit-identically after a kryo round trip") {
    val ser = new KryoSerializer(new SparkConf(false)).newInstance()
    val kernels = Seq[() => FreeSlice](() => new BitSlice(1L << 10, 4, 17L),
      () => new RegisterSlice(1 << 10, 4, 5, 29L))
    kernels.foreach { mk =>
      val k = mk()
      (0L until 300L).foreach(d => k.offer(d % 7, d))
      val copy = ser.deserialize[FreeSlice](ser.serialize[FreeSlice](k))
      assert(copy.getClass == k.getClass && copy.q == k.q)
      (300L until 900L).foreach { d =>
        val (a, b) = (k.offer(d % 7, d), copy.offer(d % 7, d))
        assert(java.lang.Double.doubleToRawLongBits(a) == java.lang.Double.doubleToRawLongBits(b),
          s"${k.getClass.getSimpleName} pair $d: $a vs $b")
      }
      assert(copy.q == k.q)
    }
  }

  test("a slice count that does not divide the array size is rejected") {
    intercept[IllegalArgumentException](new BitSlice(1000L, 3, 17L))
    intercept[IllegalArgumentException](new RegisterSlice(1000, 7, 5, 29L))
    intercept[IllegalArgumentException](new BitSlice(1024L, 0, 17L))
    intercept[IllegalArgumentException](FreeSlice.sliceSize(4L, 8))
  }
}
