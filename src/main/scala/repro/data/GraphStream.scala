package repro.data

import java.util.SplittableRandom

/** Target shape of a dataset: the three statistics the paper's Table I
  * reports. `users`, `maxCard`, `totalCard` are the targets the generator
  * calibrates to.
  */
final case class Profile(name: String, users: Int, maxCard: Int, totalCard: Long) {
  require(users > 0 && maxCard > 0 && totalCard >= users,
    s"inconsistent profile $name: users=$users maxCard=$maxCard totalCard=$totalCard")

  /** Scale every count by `sigma` > 0 (cardinalities ≥ 1, users ≥ 1).
    *
    * The mean cardinality totalCard/users is scale-invariant, but maxCard
    * shrinks with sigma — below some sigma no distribution can reach the
    * target total. The scaled maxCard is therefore floored at 2× the
    * implied mean, which keeps the profile feasible (and still heavy-
    * tailed); at the default 1/100 scale no paper profile hits the floor.
    * Fails if the scaled users or maxCard exceed `Int.MaxValue`.
    */
  def scaled(sigma: Double): Profile = {
    require(sigma > 0 && sigma < Double.PositiveInfinity,
      s"sigma must be positive and finite, got $sigma")
    val u = math.max(1L, math.round(users * sigma))
    val t = math.max(u, math.round(totalCard * sigma))
    val minMax = math.min(t, math.ceil(2.0 * t / u).toLong)
    val mx = math.max(math.max(1L, math.round(maxCard * sigma)), minMax)
    require(u <= Int.MaxValue && mx <= Int.MaxValue,
      s"profile $name scaled by $sigma has users=$u maxCard=$mx, beyond Int.MaxValue")
    Profile(name, u.toInt, mx.toInt, t)
  }
}

object Profile {
  // Table I of the paper, verbatim.
  val sanjose     = Profile("sanjose",     8_387_347,   313_772,    23_073_907L)
  val chicago     = Profile("chicago",     1_966_677,   106_026,     9_910_287L)
  val twitter     = Profile("Twitter",    40_103_281, 2_997_496, 1_468_365_182L)
  val flickr      = Profile("Flickr",      1_441_431,    26_185,    22_613_980L)
  val orkut       = Profile("Orkut",       2_997_376,    31_949,   223_534_301L)
  val livejournal = Profile("LiveJournal", 4_590_650,     9_186,    76_937_805L)

  val all: Seq[Profile] = Seq(sanjose, chicago, twitter, flickr, orkut, livejournal)
}

/** A materialised graph stream: parallel arrays of users and items in
  * arrival order, plus the exact per-user cardinality ground truth (known
  * by construction — user u connects to exactly `truth(u)` distinct items).
  */
final case class EdgeStream(users: Array[Long], items: Array[Long], truth: Array[Int]) {
  require(users.length == items.length,
    s"ragged stream: ${users.length} users vs ${items.length} items")

  def length: Int = users.length

  /** Exact total cardinality n = Σ_s n_s. */
  lazy val totalCardinality: Long = {
    var t = 0L; var i = 0
    while (i < truth.length) { t += truth(i); i += 1 }
    t
  }

  def maxCardinality: Int = if (truth.isEmpty) 0 else truth.max

  def userCount: Int = truth.length
}

/** Synthetic replicas of the paper's datasets (DESIGN.md §4).
  *
  * Per-user cardinalities follow a truncated power law
  * `c_u = max(1, round(maxCard · u^{-θ}))`, u = 1..users, with θ fitted by
  * bisection so Σ c_u hits `totalCard`. The stream interleaves all users'
  * distinct pairs plus explicit duplicate edges in a seeded random order —
  * the ingredients every algorithm in the paper is sensitive to
  * (heavy-tailed cardinalities, duplicates to dedupe, random arrivals).
  *
  * User ids are dense 0..users-1 (so truth is an array); item ids are
  * `(u << 32) | j` to make every user's item hashes independent — shared
  * item ids would correlate per-user sketch errors across users and
  * understate RSE spread.
  */
object GraphStream {

  /** Fit the power-law exponent θ so Σ_u max(1, round(maxCard·u^-θ)) ≈
    * totalCard. The sum is monotone non-increasing in θ; bisect on
    * [0, 16].
    *
    * Each step sums the terms one run of equal value at a time (see
    * [[foreachRun]]), so a step costs O(#runs · log users) `pow` calls
    * rather than one per user: at chicago's 1.97 M users, about 1,300 runs.
    * The run sum is exactly the `Long` Σ over users, so θ is as well.
    */
  def fitTheta(users: Int, maxCard: Int, totalCard: Long): Double = {
    var lo = 0.0 // sum(lo) ≥ target
    var hi = 16.0 // sum(hi) ≈ users + maxCard ≤ target
    val floor = total(users, maxCard, hi)
    require(floor <= totalCard,
      s"target totalCard=$totalCard below floor $floor for users=$users maxCard=$maxCard")
    var it = 0
    while (it < 60) {
      val mid = (lo + hi) / 2
      if (total(users, maxCard, mid) >= totalCard) lo = mid else hi = mid
      it += 1
    }
    lo
  }

  /** Per-user cardinalities for a profile (user 0 gets maxCard), filled
    * one run of equal value at a time by [[foreachRun]].
    */
  def cardinalities(p: Profile): Array[Int] = {
    val theta = fitTheta(p.users, p.maxCard, p.totalCard)
    val cards = new Array[Int](p.users)
    foreachRun(p.users, p.maxCard, theta) { (first, last, c) =>
      java.util.Arrays.fill(cards, (first - 1).toInt, last.toInt, c.toInt)
    }
    cards
  }

  /** Σ_u max(1, round(maxCard·u^-θ)) over the ranks u = 1..users. */
  private[data] def total(users: Int, maxCard: Int, theta: Double): Long = {
    var sum = 0L
    foreachRun(users, maxCard, theta)((first, last, c) => sum += c * (last - first + 1))
    sum
  }

  /** Calls `f(first, last, c)` for each maximal run of ranks
    * first..last ⊆ 1..users whose terms all equal c, in rank order.
    *
    * From the run's first rank it gallops (steps 1, 2, 4, …) while the
    * term still equals c, then bisects to the run's last rank. This finds
    * the true end because [[card]] is non-increasing in u:
    * `java.lang.Math.pow` is semi-monotonic by its specification, and
    * scaling by maxCard > 0, rounding and max(1, ·) all preserve order.
    * So every run, and every sum over them, equals the per-user one.
    */
  private def foreachRun(users: Int, maxCard: Int, theta: Double)(f: (Long, Long, Long) => Unit): Unit = {
    var first = 1L
    while (first <= users) {
      val c = card(maxCard, first, theta)
      var last = first // the last rank known to be in the run
      var step = 1L
      while (step <= users - last && card(maxCard, last + step, theta) == c) {
        last += step
        step *= 2
      }
      var past = math.min(last + step, users + 1L) // the first rank known to be past it
      while (past - last > 1) {
        val mid = (last + past) / 2
        if (card(maxCard, mid, theta) == c) last = mid else past = mid
      }
      f(first, last, c)
      first = last + 1
    }
  }

  /** The power-law term max(1, round(maxCard·u^-θ)) of user rank u ≥ 1. */
  private def card(maxCard: Int, u: Long, theta: Double): Long =
    math.max(1L, math.round(maxCard * math.pow(u.toDouble, -theta)))

  /** The longest edge array `generate` allocates: the JDK's own soft limit
    * on array lengths, since some JVMs refuse the few lengths above it.
    */
  private val MaxEdges = Int.MaxValue - 8

  /** Generate the full stream for a profile.
    *
    * @param dupFactor total edges = dupFactor × distinct pairs (≥ 1); the
    *                  extra edges are uniform re-draws of existing pairs
    * @param seed      RNG seed — generation is deterministic in (p, dupFactor, seed)
    */
  def generate(p: Profile, dupFactor: Double = 1.3, seed: Long = 7L): EdgeStream = {
    require(dupFactor >= 1.0 && dupFactor < Double.PositiveInfinity,
      s"dupFactor must be finite and ≥ 1, got $dupFactor")
    val truth = cardinalities(p)
    var distinct = 0L
    truth.foreach(distinct += _)
    require(distinct < Int.MaxValue / 2, s"stream too large: $distinct distinct pairs")
    val nDistinct = distinct.toInt
    val extraEdges = math.round(nDistinct * (dupFactor - 1.0)) // a Long, saturating
    require(extraEdges <= MaxEdges - nDistinct,
      s"stream too large: $nDistinct distinct pairs × dupFactor $dupFactor exceeds $MaxEdges edges")
    val extras = extraEdges.toInt
    val n = nDistinct + extras

    val us = new Array[Long](n)
    val is = new Array[Long](n)
    var k = 0
    var u = 0
    while (u < truth.length) {
      var j = 0
      val c = truth(u)
      while (j < c) {
        us(k) = u.toLong
        is(k) = (u.toLong << 32) | j.toLong
        j += 1; k += 1
      }
      u += 1
    }
    val rng = new SplittableRandom(seed ^ p.name.hashCode.toLong)
    var e = 0
    while (e < extras) { // duplicates: uniform re-draws of distinct pairs
      val src = rng.nextInt(nDistinct)
      us(k) = us(src); is(k) = is(src)
      e += 1; k += 1
    }
    // Fisher–Yates shuffle of both arrays in tandem: random arrival order.
    var i = n - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val tu = us(i); us(i) = us(j); us(j) = tu
      val ti = is(i); is(i) = is(j); is(j) = ti
      i -= 1
    }
    EdgeStream(us, is, truth)
  }
}
