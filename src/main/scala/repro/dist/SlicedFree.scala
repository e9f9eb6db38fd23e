package repro.dist

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._

import repro.core.{BitSlice, FreeSlice, Hashing, RegisterArray, RegisterSlice, UserCounters}

/** Distributed batch FreeBS/FreeRS over a Spark dataflow (DESIGN.md §3).
  *
  * The shared array of M positions is partitioned into P disjoint slices of
  * size M/P; pair e goes to slice `h*(e) mod P` at local position
  * `h*(e) div P`. Each slice is an independent FreeBS/FreeRS instance over
  * the sub-stream of pairs hashed into it (the hash shards pairs uniformly),
  * so its Horvitz–Thompson estimate of "distinct pairs of user s landing in
  * this slice" is unbiased, and summing slice estimates over P recovers an
  * unbiased estimate of n_s. The final array state (OR of bits / max of
  * registers) is identical to the sequential run.
  */
object SlicedFree {

  /** One stream edge: arrival index t, user s, item d. */
  final case class Edge(t: Long, s: Long, d: Long)

  /** Per-user estimates (columns s, estimate) via slice-partitioned FreeBS.
    *
    * @param bigM shared bit-array size; must be divisible by slices
    */
  def freeBS(edges: Dataset[Edge], bigM: Long, slices: Int, seed: Long = 17L): DataFrame =
    estimates(edges, bigM, slices, seed)(() => new BitSlice(bigM, slices, seed))

  /** Per-user estimates (columns s, estimate) via slice-partitioned FreeRS. */
  def freeRS(edges: Dataset[Edge], bigM: Int, slices: Int, seed: Long = 29L): DataFrame =
    estimates(edges, bigM.toLong, slices, seed)(
      () => new RegisterSlice(bigM, slices, RegisterArray.SharedWidth, seed))

  private def estimates(edges: Dataset[Edge], bigM: Long, slices: Int, seed: Long)(
      newSlice: () => FreeSlice): DataFrame = {
    FreeSlice.sliceSize(bigM, slices) // fail at call time, before any job runs
    val spark = edges.sparkSession
    import spark.implicits._
    edges
      .groupByKey(e => FreeSlice.key(e.s, e.d, bigM, slices, seed))
      .flatMapGroups((_: Int, it: Iterator[Edge]) => offerAll(newSlice(), it).iterator)
      .toDF("s", "delta")
      .groupBy("s")
      .agg(sum("delta") as "estimate")
  }

  /** The slice-local pass of every Spark path: offer a slice's edges to its
    * kernel in arrival order t (deterministic, whatever the partitioning)
    * and sum the Horvitz–Thompson increments per user.
    */
  private[dist] def offerAll(slice: FreeSlice, edges: Iterator[Edge]): UserCounters = {
    val est = new UserCounters
    edges.toArray.sortBy(_.t).foreach(e => est.add(e.s, slice.offer(e.s, e.d)))
    est
  }

  /** Final global bit positions that any FreeBS execution (sequential or
    * sliced) sets for this edge set — order-independent; used by tests to
    * prove state equivalence across execution strategies.
    */
  def globalBitPositions(edges: Dataset[Edge], bigM: Long, seed: Long = 17L): Array[Long] = {
    val spark = edges.sparkSession
    import spark.implicits._
    edges.map(e => Hashing.pairIndex(e.s, e.d, bigM, seed)).distinct().collect().sorted
  }
}
