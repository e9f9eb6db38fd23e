package repro.jobs

import repro.eval.Experiments

/** Table II — super-spreader detection FNR/FPR for FreeBS, FreeRS, CSE,
  * vHLL and HLL++ on all six dataset replicas.
  *
  * Usage: spark-submit --class repro.jobs.TableIIJob <jar> [sigma] [mBits] [m]
  */
object TableIIJob {
  def main(args: Array[String]): Unit = {
    val sigma = if (args.length > 0) args(0).toDouble else Experiments.DefaultSigma
    val mBits = if (args.length > 1) args(1).toLong else Experiments.DefaultMBits
    val m = if (args.length > 2) args(2).toInt else Experiments.DefaultVirtualM
    println(s"Table II: Delta=${Experiments.Delta}, M=$mBits bits, m=$m, sigma=$sigma")
    println(Experiments.renderTableII(Experiments.tableII(sigma = sigma, mBits = mBits, m = m)))
  }
}
