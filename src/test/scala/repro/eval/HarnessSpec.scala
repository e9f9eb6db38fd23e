package repro.eval

import repro.SparkSpec
import repro.core.{BitSlice, FreeBS, FreeRS, FreeSketch, FreeSlice, PerEdge, RegisterSlice}
import repro.core.PerEdge.raw

class HarnessSpec extends SparkSpec {

  private def stream(n: Int): (Array[Long], Array[Long]) =
    (Array.tabulate(n)(i => (i % 7).toLong), Array.tabulate(n)(_.toLong))

  test("run feeds every edge and returns a positive mean") {
    val (s, d) = stream(1000)
    val sk = new FreeBS(1 << 16, 3L)
    val ns = Harness.run(sk, s, d)
    assert(ns > 0)
    // All 1000 distinct pairs were fed: estimates sum close to 1000.
    assert(math.abs(sk.estimatedTotal - 1000) < 30)
  }

  test("run rejects ragged streams") {
    intercept[IllegalArgumentException](
      Harness.run(new FreeBS(64), new Array[Long](3), new Array[Long](4)))
    intercept[IllegalArgumentException](
      Harness.timed(new FreeBS(64), new Array[Long](4), new Array[Long](3), warmup = 0, measured = 4))
  }

  test("timed respects warmup/measured split") {
    val (s, d) = stream(1000)
    val sk = new FreeBS(1 << 16, 5L)
    val ns = Harness.timed(sk, s, d, warmup = 200, measured = 800)
    assert(ns > 0)
    assert(math.abs(sk.estimatedTotal - 1000) < 30) // all edges still fed
  }

  test("after timed, FreeBS/FreeRS hold exactly the fed prefix, by raw bits") {
    // Warm-up and window both end inside a block, and edges are left past the window.
    val (s, d) = stream(3 * FreeSketch.Block + 100)
    val (warmup, measured) = (FreeSketch.Block + 300, FreeSketch.Block + 500)
    def check[K <: FreeSlice](sk: FreeSketch[K], ref: PerEdge[K]): Unit = {
      Harness.timed(sk, s, d, warmup, measured)
      (0 until warmup + measured).foreach(i => ref.update(s(i), d(i)))
      (0L until 7L).foreach(u => assert(raw(sk.estimate(u)) == raw(ref.counters(u)), s"${sk.name} user $u"))
      assert(raw(sk.estimatedTotal) == raw(ref.total), sk.name)
    }
    check(new FreeBS(1 << 12, 5L), new PerEdge(new BitSlice(1 << 12, 1, 5L)))
    check(new FreeRS(1 << 10, 5, 6L), new PerEdge(new RegisterSlice(1 << 10, 1, 5, 6L)))
  }

  test("timed rejects a measurement window longer than the stream") {
    val (s, d) = stream(100)
    intercept[IllegalArgumentException](
      Harness.timed(new FreeBS(64), s, d, warmup = 50, measured = 60))
    // A negative part or an Int-overflowing sum must not pass as a short window.
    val (s10, d10) = stream(10)
    for ((warmup, measured) <- Seq((-5, 10), (5, -1), (Int.MaxValue, Int.MaxValue), (Int.MaxValue, 1)))
      intercept[IllegalArgumentException](Harness.timed(new FreeBS(64), s10, d10, warmup, measured))
  }

  test("run on an empty stream is a no-op") {
    val sk = new FreeBS(64)
    Harness.run(sk, Array.empty[Long], Array.empty[Long])
    assert(sk.estimatedTotal == 0.0)
  }
}
