package repro.eval

import repro.SparkSpec
import repro.core.UserCardinalitySketch
import repro.data.{EdgeStream, Profile}

class ExperimentsSpec extends SparkSpec {

  private val sigmaTiny = 0.001

  test("tableI rows carry both measured stats and targets") {
    val rows = Experiments.tableI(sigma = sigmaTiny)
    assert(rows.map(_.name) == Profile.all.map(_.name))
    rows.foreach { r =>
      assert(r.users == r.targetUsers, s"${r.name} users")
      assert(r.maxCard == r.targetMax, s"${r.name} maxCard")
      assert(math.abs(r.totalCard - r.targetTotal).toDouble / r.targetTotal < 0.05,
        s"${r.name} total ${r.totalCard} vs ${r.targetTotal}")
    }
  }

  test("renderTableI mentions every dataset") {
    val s = Experiments.renderTableI(Experiments.tableI(sigma = sigmaTiny))
    Profile.all.foreach(p => assert(s.contains(p.name)))
  }

  test("tableIISketches builds the five methods with the right budgets") {
    val sks = Experiments.tableIISketches(100000L, 24, 1000, 3L)
    assert(sks.map(_.name) == Seq("FreeBS", "FreeRS", "CSE", "vHLL", "HLL++"))
    assert(sks(0).memoryBits == 100000L) // FreeBS: all bits
    assert(sks(1).memoryBits == (100000L / 5) * 5) // FreeRS: M/5 regs × 5 bits
    assert(sks(2).memoryBits == 100000L) // CSE: all bits
    assert(sks(3).memoryBits == (100000L / 5) * 5)
  }

  test("HLL++ per-user registers follow M/(6·|S|) with a floor of 2") {
    val sks = Experiments.tableIISketches(120000L, 24, 1000, 3L)
    val hllpp = sks.last.asInstanceOf[repro.baselines.HllPlusPlus]
    assert(hllpp.m == 20) // 120000/(6·1000)
    val floor = Experiments.tableIISketches(1200L, 4, 1000, 3L).last
      .asInstanceOf[repro.baselines.HllPlusPlus]
    assert(floor.m == 2)
  }

  test("tableIIFor on the chicago replica produces well-formed rows") {
    val ds = Experiments.dataset(Profile.chicago, sigma = sigmaTiny)
    val rows = Experiments.tableIIFor(ds, mBits = 50_000L, m = 24)
    assert(rows.length == 5)
    rows.foreach { r =>
      assert(r.dataset == "chicago")
      assert(r.fnr >= 0 && r.fnr <= 1, s"${r.method} fnr ${r.fnr}")
      assert(r.fpr >= 0 && r.fpr <= 1, s"${r.method} fpr ${r.fpr}")
      assert(r.trueSpreaders > 0)
    }
  }

  test("Free* methods detect most super spreaders at tiny scale") {
    val ds = Experiments.dataset(Profile.chicago, sigma = sigmaTiny)
    val rows = Experiments.tableIIFor(ds, mBits = 50_000L, m = 24)
    val free = rows.filter(r => r.method.startsWith("Free"))
    free.foreach(r => assert(r.fnr < 0.5, s"${r.method} fnr ${r.fnr}"))
    free.foreach(r => assert(r.fpr < 0.1, s"${r.method} fpr ${r.fpr}"))
  }

  test("renderTableII prints N/A for a saturated-range method") {
    val rows = Seq(
      Experiments.TableIIRow("x", "CSE", 1.0, 0.0, 10, reportedNone = true),
      Experiments.TableIIRow("x", "FreeBS", 0.1, 0.001, 10, reportedNone = false),
    )
    val s = Experiments.renderTableII(rows)
    assert(s.contains("N/A"))
    assert(s.contains("FreeBS"))
  }

  test("tableIIFor marks CSE N/A when its range m·ln m is below the threshold Δ·n") {
    val ds = Experiments.dataset(Profile.chicago, sigma = sigmaTiny)
    val delta = 5e-3
    assert(4 * math.log(4.0) < delta * ds.stream.totalCardinality)
    val rows = Experiments.tableIIFor(ds, mBits = 50_000L, m = 4, delta = delta)
    val byMethod = rows.map(r => r.method -> r).toMap
    assert(byMethod("CSE").na)
    assert(!byMethod("FreeBS").na && !byMethod("FreeRS").na)
  }

  test("tableIIFor rows equal a reference that feeds each sketch alone, at two seeds") {
    Seq(7L -> 3L, 11L -> 5L).foreach { case (dataSeed, sketchSeed) =>
      val ds = Experiments.dataset(Profile.chicago, sigma = sigmaTiny, seed = dataSeed)
      val st = ds.stream
      val threshold = Experiments.Delta * st.totalCardinality
      val reference = Experiments.tableIISketches(50_000L, 24, st.userCount, sketchSeed).map { sk =>
        Harness.run(sk, st.users, st.items)
        val (fnr, fpr, trueSp) = Metrics.superSpreader(st.truth, sk.estimate, threshold)
        Experiments.TableIIRow(ds.paper.name, sk.name, fnr, fpr, trueSp,
          fpr == 0.0 && (trueSp == 0 || fnr == 1.0))
      }
      assert(Experiments.tableIIFor(ds, mBits = 50_000L, m = 24, seed = sketchSeed) == reference,
        s"data seed $dataSeed, sketch seed $sketchSeed")
    }
  }

  test("accuracyTable rows equal a reference that feeds each sketch alone, on two replicas") {
    Seq(Profile.chicago -> sigmaTiny, Profile.flickr -> 0.0005).foreach { case (p, sigma) =>
      val st = Experiments.dataset(p, sigma).stream
      val reference = Experiments.budgetLineUp(50_000L, 16, st.userCount, Experiments.Seed + 11).flatMap { sk =>
        Harness.run(sk, st.users, st.items)
        Metrics.rseByBucket(st.truth, sk.estimate, Metrics.log2Bucket).toSeq.map {
          case (b, (meanN, rse, cnt)) => Experiments.AccuracyRow(sk.name, 1 << b, meanN, rse, cnt)
        }
      }
      assert(Experiments.accuracyTable(p, sigma, mBits = 50_000L, m = 16) == reference, p.name)
    }
  }

  /** Counts its updates and whether each ran on a daemon thread. It sleeps
    * `pauseMs` before its first update and throws `failure` at update
    * number `failAt`, if that is set.
    */
  private final class Probe(pauseMs: Long, failAt: Int = -1, failure: Throwable = null)
      extends UserCardinalitySketch {
    val name = "probe"
    def memoryBits: Long = 0L
    var updates = 0
    var allDaemon = true

    def update(s: Long, d: Long): Unit = {
      if (updates == 0) Thread.sleep(pauseMs)
      allDaemon &&= Thread.currentThread.isDaemon
      if (updates == failAt) throw failure
      updates += 1
    }
  }

  test("feedAll rethrows a failing sketch's own exception after every other feed has ended") {
    val n = 5000
    val st = EdgeStream(Array.tabulate(n)(i => (i % 7).toLong), Array.tabulate(n)(_.toLong), new Array[Int](7))
    val boom = new IllegalStateException("boom")
    // The failing feed is first and throws at once; the others end ~200 ms
    // later, so they are complete here only if feedAll waited for them.
    val failing = new Probe(pauseMs = 0, failAt = 10, failure = boom)
    val healthy = Seq.fill(3)(new Probe(pauseMs = 200))
    val thrown = intercept[IllegalStateException](Experiments.feedAll(failing +: healthy, st))
    assert(thrown eq boom)
    assert(failing.updates == 10)
    healthy.foreach(p => assert(p.updates == n))
    (failing +: healthy).foreach(p => assert(p.allDaemon, "a feed ran on a non-daemon thread"))
  }

  test("runtimeTable produces positive timings for all six methods") {
    val rows = Experiments.runtimeTable(ms = Seq(16), profile = Profile.flickr,
      sigma = 0.0005, mBits = 50_000L)
    assert(rows.map(_.method).distinct.size == 6)
    rows.foreach(r => assert(r.nsPerUpdate > 0, s"${r.method} timing"))
  }

  test("accuracyTable covers all six methods with finite RSEs") {
    val rows = Experiments.accuracyTable(Profile.flickr, sigma = 0.0005, mBits = 50_000L, m = 16)
    assert(rows.map(_.method).distinct.size == 6)
    rows.foreach(r => assert(r.rse >= 0 && r.rse.isFinite, s"${r.method} rse ${r.rse}"))
    rows.foreach(r => assert(r.users > 0))
  }

  test("mSweep returns one row per (method, m)") {
    val rows = Experiments.mSweep(ms = Seq(16, 64), profile = Profile.flickr,
      sigma = 0.0005, mBits = 50_000L)
    assert(rows.size == 4)
    assert(rows.map(_.method).distinct.toSet == Set("CSE", "vHLL"))
  }

  test("renderers produce non-empty output") {
    val rt = Experiments.runtimeTable(ms = Seq(16), profile = Profile.flickr,
      sigma = 0.0005, mBits = 50_000L)
    assert(Experiments.renderRuntime(rt).contains("FreeBS"))
    val acc = Experiments.accuracyTable(Profile.flickr, sigma = 0.0005, mBits = 50_000L, m = 16)
    assert(Experiments.renderAccuracy(acc).contains("vHLL"))
    val sw = Experiments.mSweep(ms = Seq(16), profile = Profile.flickr,
      sigma = 0.0005, mBits = 50_000L)
    assert(Experiments.renderSweep(sw).contains("CSE"))
  }

  test("renderRuntime prints the exact grid") {
    val rows = Seq(
      Experiments.RuntimeRow("FreeBS", 16, 54.83), Experiments.RuntimeRow("FreeBS", 64, 43.5),
      Experiments.RuntimeRow("CSE", 16, 398.25), Experiments.RuntimeRow("CSE", 64, 1034.9))
    assert(Experiments.renderRuntime(rows) ==
      "ns/update  m=16     m=64    \n" +
      "FreeBS     54.8     43.5    \n" +
      "CSE        398.3    1034.9  \n")
  }

  test("renderAccuracy prints the exact grid, blank where a bucket is empty") {
    val rows = Seq(
      Experiments.AccuracyRow("FreeBS", 32, 45.0, 0.0634, 10),
      Experiments.AccuracyRow("FreeBS", 64, 90.0, 0.06, 5),
      Experiments.AccuracyRow("LPC", 32, 45.0, 0.059, 10))
    assert(Experiments.renderAccuracy(rows) ==
      "RSE        n~32       n~64      \n" +
      "FreeBS     0.063      0.060     \n" +
      "LPC        0.059                \n")
  }

  test("renderSweep prints the exact table with the cut it used") {
    val rows = Seq(
      Experiments.SweepRow("vHLL", 64, 63, 0.508), Experiments.SweepRow("CSE", 16, 63, 0.307),
      Experiments.SweepRow("vHLL", 16, 63, 0.424), Experiments.SweepRow("CSE", 64, 63, 0.158))
    assert(Experiments.renderSweep(rows) ==
      "RSE of small users (n <= 63), by virtual sketch size m:\n" +
      "CSE    m=16   0.307   m=64   0.158\n" +
      "vHLL   m=16   0.424   m=64   0.508\n")
  }

  test("Table II over the five non-Twitter replicas renders to its recorded SHA-256 at seeds 7 and 11") {
    // The digests the benchmark records as `digest.table_ii`, for the same
    // replicas, data seeds and sketch seeds (data seed + 94).
    val expected = Map(
      7L -> "bd4a8dbef581741f22da575dd5bc09efb434da40ef50e2cc47c13a2f15d019ac",
      11L -> "7b6bf43c659a69d1d364f1d5265a694e2fa2994d32992c417fb5eda08cf8500b")
    expected.foreach { case (seed, sha) =>
      val rows = Profile.all.filterNot(_ == Profile.twitter)
        .flatMap(p => Experiments.tableIIFor(Experiments.dataset(p, seed = seed), seed = seed + 94))
      val digest = java.security.MessageDigest.getInstance("SHA-256")
        .digest(Experiments.renderTableII(rows).getBytes("UTF-8")).map(b => f"${b & 0xff}%02x").mkString
      assert(digest == sha, s"seed $seed")
    }
  }

  private def sha256(s: String): String =
    java.security.MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8")).map(b => f"${b & 0xff}%02x").mkString

  test("Table I over the six replicas renders to its recorded SHA-256") {
    assert(sha256(Experiments.renderTableI(Experiments.tableI())) ==
      "4363574d21dc45ed7d8060eb5c87c053a4adbfaed5ed844e33daf0e94aefd4ad")
  }

  test("Fig. 5 on the Orkut replica renders to its recorded SHA-256") {
    assert(sha256(Experiments.renderAccuracy(Experiments.accuracyTable())) ==
      "90e4fc9ef05f872e68525d22311918027f5a2c41c0fc3159aac7a1081c6f538d")
  }
}
