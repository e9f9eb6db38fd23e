package repro.jobs

import repro.eval.Experiments

/** Table I — generated dataset replicas vs their scaled targets.
  *
  * Usage: spark-submit --class repro.jobs.TableIJob <jar> [sigma]
  */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val sigma = if (args.nonEmpty) args(0).toDouble else Experiments.DefaultSigma
    println(s"Table I replicas at sigma=$sigma (targets = paper x sigma):")
    println(Experiments.renderTableI(Experiments.tableI(sigma)))
  }
}
