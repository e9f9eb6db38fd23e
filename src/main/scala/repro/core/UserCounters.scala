package repro.core

/** The per-user counter table of §V-B of the paper: one cardinality
  * estimate per user, updated only when that user's edge arrives. Every
  * sketch keeps its counters here, a Spark slice's too. Users never seen read 0.
  *
  * At the paper's scale this table is touched on every edge and holds
  * millions of users, so it is an unboxed open-addressing table: parallel
  * `keys`/`vals` arrays, linear probing from a `Hashing.mix64` slot,
  * doubled when half full. `Empty` marks a free slot; the one user whose
  * id equals it is kept in a side slot. `add` probes once and allocates
  * nothing. Each user's sum is accumulated in arrival order.
  */
final class UserCounters {
  import UserCounters.{Empty, InitialSlots, emptyKeys}

  private var keys = emptyKeys(InitialSlots)
  private var vals = new Array[Double](InitialSlots)
  private var mask = InitialSlots - 1
  private var used = 0 // occupied slots of `keys`
  private var emptyKeySeen = false
  private var emptyKeyVal = 0.0

  /** Adds `inc` to user `s`'s counter; a zero increment records nothing. */
  def add(s: Long, inc: Double): Unit =
    if (inc != 0.0) {
      if (s == Empty) {
        emptyKeyVal = if (emptyKeySeen) emptyKeyVal + inc else inc
        emptyKeySeen = true
      } else {
        val i = slot(s)
        if (keys(i) == s) vals(i) += inc else insert(i, s, inc)
      }
    }

  /** Sets user `s`'s counter to `v`. */
  def put(s: Long, v: Double): Unit =
    if (s == Empty) { emptyKeyVal = v; emptyKeySeen = true }
    else {
      val i = slot(s)
      if (keys(i) == s) vals(i) = v else insert(i, s, v)
    }

  /** Counter of user `s`; 0.0 if `s` was never recorded. */
  def apply(s: Long): Double =
    if (s == Empty) emptyKeyVal
    else {
      val i = slot(s)
      if (keys(i) == s) vals(i) else 0.0
    }

  /** Every recorded (user, counter) pair, each once. */
  def iterator: Iterator[(Long, Double)] = {
    val (ks, vs) = (keys, vals)
    val inTable = ks.indices.iterator.filter(ks(_) != Empty).map(i => (ks(i), vs(i)))
    if (emptyKeySeen) inTable ++ Iterator.single((Empty, emptyKeyVal)) else inTable
  }

  /** The slot holding `s`, or the free slot where probing for it stops. */
  private def slot(s: Long): Int = {
    val ks = keys
    var i = Hashing.mix64(s).toInt & mask
    while (ks(i) != s && ks(i) != Empty) i = (i + 1) & mask
    i
  }

  /** Records `s` with value `v` in free slot `i`, then grows if half full. */
  private def insert(i: Int, s: Long, v: Double): Unit = {
    keys(i) = s
    vals(i) = v
    used += 1
    if (2 * used > keys.length) grow()
  }

  private def grow(): Unit = {
    val (oldKeys, oldVals) = (keys, vals)
    keys = emptyKeys(oldKeys.length * 2)
    vals = new Array[Double](oldKeys.length * 2)
    mask = keys.length - 1
    var j = 0
    while (j < oldKeys.length) {
      if (oldKeys(j) != Empty) {
        val i = slot(oldKeys(j))
        keys(i) = oldKeys(j)
        vals(i) = oldVals(j)
      }
      j += 1
    }
  }
}

object UserCounters {

  /** Key of a free slot. A user with this id lives in the side slot. */
  private final val Empty = Long.MinValue
  private final val InitialSlots = 16

  private def emptyKeys(n: Int): Array[Long] = {
    val ks = new Array[Long](n)
    java.util.Arrays.fill(ks, Empty)
    ks
  }
}
