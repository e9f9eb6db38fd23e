package repro.core

import scala.collection.mutable

/** The per-user counter table of §V-B of the paper: one cardinality
  * estimate per user, updated only when that user's edge arrives. Every
  * sketch keeps its counters here, and the Spark paths sum a slice's
  * estimate deltas here. Users never seen read 0.
  */
final class UserCounters {
  private val table = mutable.LongMap.empty[Double]

  /** Adds `inc` to user `s`'s counter; a zero increment records nothing. */
  def add(s: Long, inc: Double): Unit =
    if (inc != 0.0) table(s) = table.getOrElse(s, 0.0) + inc

  /** Sets user `s`'s counter to `v`. */
  def put(s: Long, v: Double): Unit = table(s) = v

  /** Counter of user `s`; 0.0 if `s` was never recorded. */
  def apply(s: Long): Double = table.getOrElse(s, 0.0)

  /** Every recorded (user, counter) pair. */
  def iterator: Iterator[(Long, Double)] = table.iterator
}
