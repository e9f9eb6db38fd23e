package repro.jobs

import repro.data.Profile
import repro.eval.Experiments

/** Figure 5 (as a table) — RSE per cardinality bucket on the Orkut replica,
  * plus the Challenge-1 m-sweep (CSE/vHLL error vs m for small users).
  *
  * Usage: spark-submit --class repro.jobs.AccuracyJob <jar> [dataset]
  */
object AccuracyJob {
  def main(args: Array[String]): Unit = {
    val profile = args.headOption
      .map(n => Profile.all.find(_.name.equalsIgnoreCase(n)).getOrElse(
        sys.error(s"unknown dataset '$n'; known: ${Profile.all.map(_.name).mkString(", ")}")))
      .getOrElse(Profile.orkut)
    println(s"RSE by cardinality bucket on ${profile.name} replica:")
    println(Experiments.renderAccuracy(Experiments.accuracyTable(profile)))
    println(Experiments.renderSweep(Experiments.mSweep(profile = profile)))
  }
}
