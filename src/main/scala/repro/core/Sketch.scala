package repro.core

/** Common interface of every user-cardinality sketch in this repo.
  *
  * Semantics follow §V-B of the paper: `update(s, d)` processes one edge of
  * the graph stream (duplicates allowed) and refreshes the arriving user's
  * tracked cardinality counter in [[counters]]; `estimate(s)` reads that
  * counter — i.e. for the O(m) baselines it returns the estimate computed at
  * `s`'s most recent arrival, not a freshly recomputed one.
  */
trait UserCardinalitySketch {

  /** Per-user tracked cardinality counters, refreshed by `update`. */
  protected final val counters = new UserCounters

  /** Short method name as used in the paper's tables ("FreeBS", "vHLL", …). */
  def name: String

  /** Process edge (user, item); updates the user's tracked counter. */
  def update(s: Long, d: Long): Unit

  /** Tracked cardinality estimate of user `s` (0 if never seen). */
  final def estimate(s: Long): Double = counters(s)

  /** Sketch memory in bits, excluding the per-user counters that every
    * method needs alike (the paper excludes them from comparisons too).
    */
  def memoryBits: Long
}

/** FreeBS/FreeRS: one [[FreeSlice]] kernel spanning the whole shared array
  * (`slices = 1`) plus per-user Horvitz–Thompson counters. Each edge is
  * offered to the kernel, and a non-zero increment `1/q` is added to the
  * user's counter and to the running total.
  */
abstract class FreeSketch[K <: FreeSlice](protected val slice: K) extends UserCardinalitySketch {
  private var totalEst = 0.0

  final override def update(s: Long, d: Long): Unit = {
    val inc = slice.offer(s, d)
    counters.add(s, inc)
    totalEst += inc
  }

  /** Estimate of the total number of distinct pairs `n(t)` (sum of all
    * per-user increments — itself an unbiased estimator of Σ_s n_s).
    */
  def estimatedTotal: Double = totalEst

  /** Current change probability q of the shared array. */
  def q: Double = slice.q

  override def memoryBits: Long = slice.memoryBits
}
