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

  /** Tracked cardinality estimate of user `s` (0 if never seen) after every
    * edge fed so far; a sketch that buffers updates applies them first.
    */
  def estimate(s: Long): Double = counters(s)

  /** Sketch memory in bits, excluding the per-user counters that every
    * method needs alike (the paper excludes them from comparisons too).
    */
  def memoryBits: Long
}

/** FreeBS/FreeRS's one Horvitz–Thompson loop: a [[FreeSlice]] kernel plus
  * per-user counters. `update` hashes the edge to its address on arrival
  * and buffers it; each full block of [[FreeSketch.Block]] edges is then
  * applied in one hash-free loop (DESIGN.md §2). Every read applies the
  * pending edges first, so it answers exactly as if each edge had been
  * offered on arrival. Sequential FreeBS/FreeRS wrap one kernel
  * (`slices = 1`), and `SlicedFree` wraps a slice's kernel for one
  * micro-batch; the buffers live here, not in the kernel Spark keeps as state.
  */
class FreeSketch[K <: FreeSlice](val name: String, protected val slice: K) extends UserCardinalitySketch {
  import FreeSketch.Block

  private var totalEst = 0.0
  private val users, addresses = new Array[Long](Block)
  private var pending = 0

  final override def update(s: Long, d: Long): Unit = {
    users(pending) = s
    addresses(pending) = slice.address(s, d)
    pending += 1
    if (pending == Block) applyPending()
  }

  /** Applies the pending edges before a read. Only reads call it, so the JIT
    * keeps the block out of the compiled read (DESIGN.md §2).
    */
  protected final def flush(): Unit = if (pending > 0) applyPending()

  /** Loop-free and called once per block, so the JIT recompiles it late (DESIGN.md §2). */
  private def applyPending(): Unit = {
    totalEst = FreeSketch.offerAll(slice, users, addresses, pending, counters, totalEst)
    pending = 0
  }

  final override def estimate(s: Long): Double = { flush(); counters(s) }

  /** Estimate of the total number of distinct pairs `n(t)` (sum of all
    * per-user increments — itself an unbiased estimator of Σ_s n_s).
    */
  def estimatedTotal: Double = { flush(); totalEst }

  /** Every user's summed increment, pending edges applied; users at 0 are absent. */
  private[repro] def increments: Iterator[(Long, Double)] = { flush(); counters.iterator }

  /** Current change probability q of the shared array. */
  def q: Double = { flush(); slice.q }

  override def memoryBits: Long = slice.memoryBits
}

object FreeSketch {

  /** Edges per block of [[FreeSketch.update]]: enough to overlap the misses
    * of many edges, small enough (16 KB of buffers) to stay in L1/L2.
    */
  final val Block = 1024

  /** Runs `k`'s HT step at addresses(i), i < n, in order, adding each
    * increment to users(i)'s counter and to `total`; returns the new total.
    * The loop runs no hash, so the misses of successive edges overlap. It
    * runs on parameters: the JIT reloads a field after every call it cannot
    * see through.
    */
  private def offerAll(k: FreeSlice, users: Array[Long], addresses: Array[Long], n: Int,
                       counters: UserCounters, total: Double): Double = {
    var t = total
    var i = 0
    while (i < n) {
      val inc = k.step(addresses(i))
      counters.add(users(i), inc)
      t += inc
      i += 1
    }
    t
  }
}
