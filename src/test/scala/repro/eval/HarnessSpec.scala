package repro.eval

import repro.SparkSpec
import repro.core.FreeBS

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

  test("timed rejects a measurement window longer than the stream") {
    val (s, d) = stream(100)
    intercept[IllegalArgumentException](
      Harness.timed(new FreeBS(64), s, d, warmup = 50, measured = 60))
  }

  test("run on an empty stream is a no-op") {
    val sk = new FreeBS(64)
    Harness.run(sk, Array.empty[Long], Array.empty[Long])
    assert(sk.estimatedTotal == 0.0)
  }
}
