package repro.dist

import org.apache.spark.sql.{DataFrame, Dataset}

/** Structured Streaming names for [[SlicedFree]]'s dataflow, which runs
  * unchanged on a streaming Dataset: the result (s, estimate) is a
  * streaming DataFrame to be written with OutputMode.Complete.
  */
object StreamingFree {

  /** One stream edge: arrival index t, user s, item d. */
  type Edge = SlicedFree.Edge
  val Edge = SlicedFree.Edge

  /** Streaming per-user FreeBS estimates: [[SlicedFree.freeBS]]. */
  def freeBSEstimates(edges: Dataset[Edge], bigM: Long, slices: Int,
                      seed: Long = 17L): DataFrame =
    SlicedFree.freeBS(edges, bigM, slices, seed)

  /** Streaming per-user FreeRS estimates: [[SlicedFree.freeRS]]. */
  def freeRSEstimates(edges: Dataset[Edge], bigM: Int, slices: Int, seed: Long = 29L): DataFrame =
    SlicedFree.freeRS(edges, bigM, slices, seed)
}
