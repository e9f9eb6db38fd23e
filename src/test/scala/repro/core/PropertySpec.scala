package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec

/** ScalaCheck property suites, run programmatically (the scalatest-plus
  * bridge is not on the offline classpath).
  */
class PropertySpec extends SparkSpec {

  private def check(prop: Prop, tests: Int = 100): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(tests), prop)
    assert(res.passed, s"property failed: ${res.status}")
  }

  private val posLong = Gen.chooseNum(1L, Long.MaxValue - 1)
  private val anyLong = Gen.chooseNum(Long.MinValue, Long.MaxValue)
  /** Sizes in [1, 2^61], spread evenly over their bit lengths. */
  private val rangeSize = Gen.chooseNum(0, 61).flatMap(k => Gen.chooseNum(1L, 1L << k))

  test("property: index always lands in [0, range)") {
    check(Prop.forAll(anyLong, Gen.chooseNum(1L, 1L << 40)) { (h, r) =>
      val i = Hashing.index(h, r)
      i >= 0 && i < r
    })
  }

  test("property: Range(r)(h) equals floorMod(h, r) for every h and r in [1, 2^61]") {
    check(Prop.forAllNoShrink(anyLong, rangeSize) { (h, r) =>
      Hashing.Range(r)(h) == java.lang.Math.floorMod(h, r)
    }, tests = 10000)
  }

  test("property: the Range overloads and the hoisted f_i(s) equal the Long-range hashes") {
    check(Prop.forAllNoShrink(anyLong, anyLong, Gen.chooseNum(0, 1023), rangeSize, anyLong) { (s, d, i, r, seed) =>
      val rg = Hashing.Range(r)
      Hashing.userSelect(Hashing.userKey(s, seed), Hashing.selectorKey(i), rg) ==
        FloorModHashing.userSelect(s, i, r, seed) &&
      Hashing.pairIndex(s, d, rg, seed) == Hashing.pairIndex(s, d, r, seed) &&
      Hashing.itemIndex(d, rg, seed) == FloorModHashing.itemIndex(d, r, seed)
    }, tests = 2000)
  }

  test("property: pairIndex and pairRank are pure functions") {
    check(Prop.forAll(anyLong, anyLong, posLong) { (s, d, seed) =>
      Hashing.pairIndex(s, d, 1 << 16, seed) == Hashing.pairIndex(s, d, 1 << 16, seed) &&
      Hashing.pairRank(s, d, 31, seed) == Hashing.pairRank(s, d, 31, seed)
    })
  }

  test("property: pairRank is always within [1, cap]") {
    check(Prop.forAll(anyLong, anyLong, Gen.chooseNum(1, 63)) { (s, d, cap) =>
      val r = Hashing.pairRank(s, d, cap, 7L)
      r >= 1 && r <= cap
    })
  }

  test("property: BitArray.set is idempotent and zero count is consistent") {
    val ops = Gen.listOfN(200, Gen.chooseNum(0L, 255L))
    check(Prop.forAll(ops) { ixs =>
      val b = new BitArray(256)
      ixs.foreach(b.set)
      val again = ixs.map(b.set) // all already set → all false
      b.zeros == b.recountZeros() && again.forall(_ == false) &&
        b.zeros == 256 - ixs.distinct.size
    }, tests = 50)
  }

  test("property: RegisterArray updates are monotone and sum-consistent") {
    val ops = Gen.listOfN(200, Gen.zip(Gen.chooseNum(0, 63), Gen.chooseNum(0, 40)))
    check(Prop.forAll(ops) { ps =>
      val r = new RegisterArray(64, 5)
      var ok = true
      ps.foreach { case (i, v) =>
        val before = r.get(i)
        r.update(i, v)
        ok &&= r.get(i) >= before && r.get(i) >= math.min(v, 31)
      }
      ok && r.sumPow2Neg == RegisterScan.sumPow2Neg(r)
    }, tests = 50)
  }

  test("property: the integer Σ 2^(31−r) over 2^31 equals the left-to-right Double sum of 2^−r") {
    // vHLL sums a user's m registers as a Long; this equality keeps its
    // estimates bit-identical to the Double sum for m ≤ 2^22.
    val regs = for {
      n <- Gen.chooseNum(1, 1024)
      top <- Gen.chooseNum(0, 31)
      rs <- Gen.listOfN(n, Gen.chooseNum(0, top))
    } yield rs
    check(Prop.forAll(regs) { rs =>
      rs.map(r => 1L << (31 - r)).sum.toDouble / (1L << 31).toDouble ==
        rs.foldLeft(0.0)((s, r) => s + repro.baselines.Hll.pow2Neg(r))
    }, tests = 500)
  }

  test("property: FreeBS is invariant under duplicate replays") {
    val stream = Gen.listOfN(100, Gen.zip(Gen.chooseNum(0L, 9L), Gen.chooseNum(0L, 49L)))
    check(Prop.forAll(stream) { edges =>
      val sk = new FreeBS(1024, 3L)
      edges.foreach { case (s, d) => sk.update(s, d) }
      val snap = (0L until 10L).map(sk.estimate)
      edges.foreach { case (s, d) => sk.update(s, d) }
      (0L until 10L).map(sk.estimate) == snap
    }, tests = 50)
  }

  test("property: FreeRS is invariant under duplicate replays") {
    val stream = Gen.listOfN(100, Gen.zip(Gen.chooseNum(0L, 9L), Gen.chooseNum(0L, 49L)))
    check(Prop.forAll(stream) { edges =>
      val sk = new FreeRS(256, 5, 3L)
      edges.foreach { case (s, d) => sk.update(s, d) }
      val snap = (0L until 10L).map(sk.estimate)
      edges.foreach { case (s, d) => sk.update(s, d) }
      (0L until 10L).map(sk.estimate) == snap
    }, tests = 50)
  }

  test("property: FreeBS total estimate equals the sum of user estimates") {
    val stream = Gen.listOfN(150, Gen.zip(Gen.chooseNum(0L, 19L), Gen.chooseNum(0L, 999L)))
    check(Prop.forAll(stream) { edges =>
      val sk = new FreeBS(2048, 5L)
      edges.foreach { case (s, d) => sk.update(s, d) }
      val sum = (0L until 20L).map(sk.estimate).sum
      math.abs(sum - sk.estimatedTotal) < 1e-6
    }, tests = 50)
  }

  test("property: estimates of all sketches are non-negative and finite") {
    val stream = Gen.listOfN(120, Gen.zip(Gen.chooseNum(0L, 9L), Gen.chooseNum(0L, 499L)))
    check(Prop.forAll(stream) { edges =>
      val sketches = Seq(
        new FreeBS(512, 1L), new FreeRS(128, 5, 2L),
        new repro.baselines.Cse(2048, 32, 3L),
        new repro.baselines.Vhll(512, 32, 4L),
        new repro.baselines.Lpc(64, 5L),
        new repro.baselines.HllPlusPlus(16, 6L))
      edges.foreach { case (s, d) => sketches.foreach(_.update(s, d)) }
      sketches.forall(sk => (0L until 10L).forall { u =>
        val e = sk.estimate(u); e >= 0.0 && e.isFinite
      })
    }, tests = 30)
  }
}
