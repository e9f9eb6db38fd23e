package repro.perfbench

import repro.core.{FreeBS, FreeRS}
import repro.theory.Theory

/** Helpers shared by the workloads. */
object Bench {

  /** Set-ups per run; `setup_s` is their median. */
  val Setups = 3

  /** The program's default hash seeds of FreeBS and FreeRS (and of
    * SlicedFree/StreamingFree), used wherever a workload builds them.
    */
  val BsSeed = 17L
  val RsSeed = 29L

  /** z of the anytime checks on estimated totals. */
  val Z = 5.0

  /** Runs `body` [[Setups]] times, reports the median as `setup_s` and
    * returns the last result (the earlier ones become garbage).
    */
  def setUp[A](run: Run)(body: => A): A = {
    var last: Option[A] = None
    val times = (1 to Setups).map { _ =>
      last = None
      val (a, s) = run.timed("setup")(body)
      last = Some(a)
      s
    }
    run.detail("setup_s_samples", times)
    run.endToEnd("setup_s", Stats.median(times), "s")
    last.get
  }

  /** Standard deviation bound on FreeBS's estimated total after `n`
    * distinct pairs over `mBits` bits (Theorem 1 with n_s = n).
    */
  def bsTotalSd(n: Double, mBits: Double): Double = math.sqrt(Theory.freeBsVarBound(n, n, mBits))

  /** Standard deviation bound on FreeRS's estimated total. Theorem 2's
    * bound holds for n > 2.5·M. Below that, every register still zero
    * changes with probability 1, so q_R ≥ q_B on the same M and
    * Theorem 1's bound applies.
    */
  def rsTotalSd(n: Double, registers: Double): Double =
    if (n > 2.5 * registers) math.sqrt(Theory.freeRsVarBound(n, n, registers))
    else bsTotalSd(n, registers)

  /** Checks an estimated total against the exact one within Z bounds. */
  def checkTotal(run: Run, what: String, est: Double, exact: Double, sd: Double): Unit = {
    run.check(math.abs(est - exact) <= Z * math.max(sd, 1.0),
      f"$what: estimated total $est%.1f vs exact $exact%.0f exceeds $Z%.0f·sd (sd=$sd%.1f)")
  }

  /** Checks that every per-user estimate is finite and non-negative. */
  def checkSnapshot(run: Run, what: String, est: Array[Double]): Unit = {
    val bad = est.count(x => x.isNaN || x.isInfinite || x < 0)
    run.check(bad == 0, s"$what: $bad estimates not finite or negative")
  }

  /** Health of the two sequential sketches: change probabilities, fill,
    * range headroom m·ln m − n̂, saturated registers and tracked users.
    */
  def health(run: Run, bs: FreeBS, rs: FreeRS, users: Int): Unit = {
    run.layer("FreeBS.q", bs.q, "ratio")
    run.layer("FreeBS.fill_fraction", bs.bits.ones.toDouble / bs.m, "ratio")
    run.layer("FreeBS.headroom", bs.m * math.log(bs.m.toDouble) - bs.estimatedTotal, "pairs")
    run.layer("FreeRS.q", rs.q, "ratio")
    if (run.traced) {
      var sat = 0L; var i = 0
      val regs = rs.registers
      while (i < regs.size) { if (regs.get(i) == regs.maxValue) sat += 1; i += 1 }
      run.layer("FreeRS.saturated_registers", sat.toDouble, "count")
    }
    var tracked = 0; var u = 0
    while (u < users) { if (bs.estimate(u.toLong) > 0) tracked += 1; u += 1 }
    run.layer("tracked_users", tracked.toDouble, "count")
  }

  /** Reports the Spark layers as idle, for the workloads that do not
    * use Spark: zero time, zero tasks, zero bytes.
    */
  def sparkIdle(run: Run): Unit =
    (SparkMetrics.StageMetrics ++ SparkMetrics.StreamingMetrics).foreach { case (n, u) =>
      run.layer(n, 0.0, u)
    }
}
