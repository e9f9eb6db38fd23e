package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Figure 3 of the paper, reproduced as a table — mean per-update time of
  * all six methods as the (virtual) per-user sketch size m varies.
  *
  * The reproduced claim is the O(1)-vs-O(m) *shape*: FreeBS/FreeRS are flat
  * in m and fastest; CSE/vHLL/LPC/HLL++ grow with m; CSE is faster than
  * vHLL and FreeBS faster than FreeRS (bit ops vs register ops). Absolute
  * ns/update are JVM numbers, not the paper's testbed.
  */
class RuntimeBench extends SparkSpec {

  private val ms = Seq(16, 64, 256, 1024)
  /** Each cell is the median of 5 `runtimeTable` runs: one timing per
    * (method, m) is too noisy on a shared 4-core machine for the shape
    * checks below (HLL++'s growth ratio spread 3.3–6.5 around its bound of 4).
    */
  private lazy val rows = Seq.fill(5)(Experiments.runtimeTable(ms)).transpose.map { cell =>
    cell.head.copy(nsPerUpdate = cell.map(_.nsPerUpdate).sorted.apply(2))
  }

  private def at(method: String, m: Int): Double =
    rows.find(r => r.method == method && r.m == m).get.nsPerUpdate

  test("Figure 3 (as table): ns/update per method and m") {
    println()
    println("===== Figure 3 as table: mean update time (ns), flickr replica =====")
    println(Experiments.renderRuntime(rows))
    rows.foreach(r => assert(r.nsPerUpdate > 0 && r.nsPerUpdate < 1e7))
  }

  test("shape: Free* update cost is flat in m") {
    Seq("FreeBS", "FreeRS").foreach { meth =>
      val t16 = at(meth, 16); val t1024 = at(meth, 1024)
      assert(t1024 < 5 * t16 + 200,
        s"$meth not flat: m=16 → $t16 ns, m=1024 → $t1024 ns")
    }
  }

  test("shape: O(m) baselines grow with m") {
    Seq("CSE", "vHLL", "HLL++").foreach { meth =>
      val t16 = at(meth, 16); val t1024 = at(meth, 1024)
      assert(t1024 > 4 * t16, s"$meth did not grow: m=16 → $t16, m=1024 → $t1024")
    }
  }

  test("shape: Free* are the fastest methods at large m") {
    val free = Seq("FreeBS", "FreeRS").map(at(_, 1024)).max
    Seq("CSE", "vHLL", "LPC", "HLL++").foreach { meth =>
      assert(at(meth, 1024) > free,
        s"$meth at m=1024 (${at(meth, 1024)} ns) not slower than Free* ($free ns)")
    }
  }

  test("shape: bit sharing is cheaper than register sharing") {
    assert(at("FreeBS", 1024) <= at("FreeRS", 1024) * 1.5 + 50,
      "FreeBS much slower than FreeRS")
    assert(at("CSE", 1024) < at("vHLL", 1024) * 1.5,
      "CSE much slower than vHLL")
  }
}
