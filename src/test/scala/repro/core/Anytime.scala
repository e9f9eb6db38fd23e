package repro.core

import scala.collection.mutable

import repro.data.{GraphStream, Profile}

/** The anytime check of FreeBSSpec and FreeRSSpec: the estimators are
  * unbiased at every t, not only at the end of a stream. One fixed stream
  * with interleaved users and duplicates is fed to one sketch per hash seed
  * 0–39. At 25/50/75/100 % of its edges, the mean over seeds of the
  * estimated total and of user 0's estimate must lie within Z·sd/√40 of the
  * exact prefix counts, where sd comes from the Theorem bounds.
  */
object Anytime {
  private val stream = GraphStream.generate(Profile("anytime", 200, 200, 4000L), 1.3, 3L)
  private val Seeds = 0 until 40
  private val Z = 4.0
  /** Edge counts at the 25/50/75/100 % checkpoints. */
  private val ends = (1 to 4).map(k => stream.length * k / 4)

  /** Exact distinct pairs n(t) and user 0's n_0(t) at each checkpoint, from
    * a set of the (s, d) pairs seen so far.
    */
  private val truths: Seq[(Double, Double)] = {
    val seen = mutable.HashSet.empty[(Long, Long)]
    var i = 0
    ends.map { end =>
      while (i < end) { seen += (stream.users(i) -> stream.items(i)); i += 1 }
      (seen.size.toDouble, seen.count(_._1 == 0L).toDouble)
    }
  }

  /** One line per checkpoint mean outside its margin. `sd(ns, n)` is the
    * Theorem bound's standard deviation for n_s of the n distinct pairs.
    */
  def misses(newSketch: Long => FreeSketch[_])(sd: (Double, Double) => Double): Seq[String] = {
    val runs = Seeds.map { seed =>
      val sk = newSketch(seed.toLong)
      var i = 0
      ends.map { end =>
        while (i < end) { sk.update(stream.users(i), stream.items(i)); i += 1 }
        (sk.estimatedTotal, sk.estimate(0L))
      }
    }
    ends.indices.flatMap { c =>
      val (n, n0) = truths(c)
      def miss(what: String, ests: Seq[Double], truth: Double): Option[String] = {
        val mean = ests.sum / ests.size
        val margin = Z * sd(truth, n) / math.sqrt(Seeds.size.toDouble)
        Option.when(math.abs(mean - truth) > margin)(
          f"${ends(c)} edges, $what: mean $mean%.1f vs exact $truth%.0f, margin $margin%.1f")
      }
      miss("total", runs.map(_(c)._1), n) ++ miss("user 0", runs.map(_(c)._2), n0)
    }
  }
}
