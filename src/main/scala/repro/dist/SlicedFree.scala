package repro.dist

import org.apache.spark.sql.{DataFrame, Dataset, Encoder, Encoders}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}

import repro.core.{BitSlice, FreeSketch, FreeSlice, Hashing, RegisterArray, RegisterSlice}

/** Distributed FreeBS/FreeRS over one Spark dataflow, batch or streaming
  * (DESIGN.md §3).
  *
  * The shared array of M positions is partitioned into P disjoint slices of
  * size M/P; pair e goes to slice `h*(e) mod P` at local position
  * `h*(e) div P`. Each slice is an independent FreeBS/FreeRS instance over
  * the sub-stream of pairs hashed into it (the hash shards pairs uniformly),
  * so its Horvitz–Thompson estimate of "distinct pairs of user s landing in
  * this slice" is unbiased, and summing slice estimates over P recovers an
  * unbiased estimate of n_s. Slice k's position i is position i·P + k of
  * the sequential array, so the slices together hold the sequential run's
  * final array state.
  *
  * Each slice's [[FreeSlice]] kernel is the Spark group state of its slice
  * key; per micro-batch a [[FreeSketch]] runs it over the slice's edges in
  * arrival order t and emits the per-user increments. On a batch Dataset
  * every slice starts from a fresh kernel; on a streaming Dataset the
  * kernel carries over between micro-batches, so duplicates across them are
  * absorbed and the estimates are live at every trigger (the paper's
  * "anytime" requirement). Write a streaming result with OutputMode.Complete.
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
    FreeSlice.sliceSize(bigM, slices) // fail at call time, before any job or query runs
    val range = Hashing.Range(bigM)
    val spark = edges.sparkSession
    import spark.implicits._
    implicit val sliceState: Encoder[FreeSlice] = Encoders.kryo[FreeSlice]
    edges
      .groupByKey(e => FreeSlice.key(e.s, e.d, range, slices, seed))
      .flatMapGroupsWithState(OutputMode.Append, GroupStateTimeout.NoTimeout) {
        (_: Int, batch: Iterator[Edge], state: GroupState[FreeSlice]) =>
          val slice = state.getOption.getOrElse(newSlice())
          val sketch = new FreeSketch("SlicedFree", slice)
          // Arrival order t, whatever the partitioning: the estimates are deterministic.
          batch.toArray.sortBy(_.t).foreach(e => sketch.update(e.s, e.d))
          val deltas = sketch.increments // applies the last block to the kernel
          state.update(slice)
          deltas
      }
      .toDF("s", "delta")
      .groupBy("s")
      .agg(sum("delta") as "estimate")
  }
}
