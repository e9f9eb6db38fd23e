package repro.dist

import org.apache.spark.sql.{DataFrame, Dataset, Encoder, Encoders}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}

import repro.core.{BitSlice, FreeSlice, RegisterArray, RegisterSlice}

/** Structured Streaming FreeBS/FreeRS (DESIGN.md §3 — the calibration
  * hint's "stateful aggregation (mapGroupsWithState) updating sketch arrays
  * per key").
  *
  * The stream of edges is keyed by array slice; `flatMapGroupsWithState`
  * holds each slice's [[FreeSlice]] kernel as group state, runs the
  * slice-local pass of [[SlicedFree]] over each micro-batch (edges in order
  * t) and emits per-user Horvitz–Thompson estimate deltas.
  * A downstream streaming aggregation `groupBy(user).sum(delta)` maintains
  * the live per-user cardinality estimates — available at every trigger, as
  * the paper's "anytime" requirement demands. Duplicate edges are absorbed
  * by the slice state across micro-batches.
  */
object StreamingFree {

  /** One stream edge: arrival index t, user s, item d. */
  type Edge = SlicedFree.Edge
  val Edge = SlicedFree.Edge

  /** Streaming per-user FreeBS estimates: a streaming DataFrame
    * (user, estimate) to be written with OutputMode.Complete.
    */
  def freeBSEstimates(edges: Dataset[Edge], bigM: Long, slices: Int,
                      seed: Long = 17L): DataFrame =
    estimates(edges, bigM, slices, seed)(() => new BitSlice(bigM, slices, seed))

  /** Streaming per-user FreeRS estimates: a streaming DataFrame
    * (user, estimate) to be written with OutputMode.Complete.
    */
  def freeRSEstimates(edges: Dataset[Edge], bigM: Int, slices: Int, seed: Long = 29L): DataFrame =
    estimates(edges, bigM.toLong, slices, seed)(
      () => new RegisterSlice(bigM, slices, RegisterArray.SharedWidth, seed))

  private def estimates(edges: Dataset[Edge], bigM: Long, slices: Int, seed: Long)(
      newSlice: () => FreeSlice): DataFrame = {
    FreeSlice.sliceSize(bigM, slices) // fail at call time, before the query starts
    val spark = edges.sparkSession
    import spark.implicits._
    implicit val sliceState: Encoder[FreeSlice] = Encoders.kryo[FreeSlice]
    edges
      .groupByKey(e => FreeSlice.key(e.s, e.d, bigM, slices, seed))
      .flatMapGroupsWithState(OutputMode.Append, GroupStateTimeout.NoTimeout) {
        (_: Int, batch: Iterator[Edge], state: GroupState[FreeSlice]) =>
          val slice = state.getOption.getOrElse(newSlice())
          val deltas = SlicedFree.offerAll(slice, batch)
          state.update(slice)
          deltas.iterator
      }
      .toDF("user", "delta")
      .groupBy("user")
      .agg(sum("delta") as "estimate")
  }
}
