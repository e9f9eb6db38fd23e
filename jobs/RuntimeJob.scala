package repro.jobs

import repro.eval.Experiments

/** Figure 3 (as a table) — mean ns/update of all six methods vs the
  * (virtual) per-user sketch size m.
  *
  * Usage: spark-submit --class repro.jobs.RuntimeJob <jar> [m...]
  */
object RuntimeJob {
  def main(args: Array[String]): Unit = {
    val ms = if (args.nonEmpty) args.map(_.toInt).toSeq else Seq(16, 64, 256, 1024)
    println("Mean update time (ns) per method and per-user sketch size m:")
    println(Experiments.renderRuntime(Experiments.runtimeTable(ms)))
  }
}
