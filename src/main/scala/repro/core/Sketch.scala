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

  /** Applies any updates a sketch has buffered. Every read of sketch state
    * calls it first, so a read at time t sees every edge before t.
    */
  protected def sync(): Unit = ()

  /** Tracked cardinality estimate of user `s` (0 if never seen), after
    * every edge fed so far: buffered updates are applied first.
    */
  final def estimate(s: Long): Double = { sync(); counters(s) }

  /** Sketch memory in bits, excluding the per-user counters that every
    * method needs alike (the paper excludes them from comparisons too).
    */
  def memoryBits: Long
}

/** FreeBS/FreeRS: one [[FreeSlice]] kernel spanning the whole shared array
  * (`slices = 1`) plus per-user Horvitz–Thompson counters.
  *
  * `update` buffers the edge. Every [[FreeSketch.Block]] edges the block
  * goes to the kernel's [[FreeSlice.offerAll]], which offers the edges in
  * arrival order and adds each non-zero increment `1/q` to the user's
  * counter and to the running total. Every read ([[estimate]],
  * [[estimatedTotal]], [[q]] and the arrays of `FreeBS`/`FreeRS`) applies
  * the pending edges first, so it answers exactly as if each edge had been
  * offered on arrival. The buffers live here, not in the kernel that Spark
  * keeps as streaming state.
  */
abstract class FreeSketch[K <: FreeSlice](protected val slice: K) extends UserCardinalitySketch {
  import FreeSketch.Block

  private var totalEst = 0.0
  private val users, items, addresses = new Array[Long](Block)
  private var pending = 0

  final override def update(s: Long, d: Long): Unit = {
    users(pending) = s
    items(pending) = d
    pending += 1
    if (pending == Block) sync()
  }

  final override protected def sync(): Unit =
    if (pending > 0) {
      totalEst = slice.offerAll(users, items, pending, addresses, counters, totalEst)
      pending = 0
    }

  /** Estimate of the total number of distinct pairs `n(t)` (sum of all
    * per-user increments — itself an unbiased estimator of Σ_s n_s).
    */
  def estimatedTotal: Double = { sync(); totalEst }

  /** Current change probability q of the shared array. */
  def q: Double = { sync(); slice.q }

  override def memoryBits: Long = slice.memoryBits
}

object FreeSketch {

  /** Edges per block of [[FreeSketch.update]]: enough to overlap the misses
    * of many edges, small enough (24 KB of buffers) to stay in L1/L2.
    */
  final val Block = 1024
}
