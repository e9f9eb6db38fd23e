package repro.dist

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQuery
import repro.SparkSpec
import repro.core.{BitSlice, FreeBS, FreeRS, RegisterSlice}
import repro.data.{GraphStream, Profile}

class StreamingFreeSpec extends SparkSpec {
  import StreamingFree.Edge

  /** Run `mkQuery` over `batches` fed one micro-batch at a time; returns the
    * final (user → estimate) table from the in-memory sink.
    */
  private def runStream(batches: Seq[Seq[Edge]], queryName: String)(
      mk: org.apache.spark.sql.Dataset[Edge] => org.apache.spark.sql.DataFrame
  ): Map[Long, Double] = {
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val input = MemoryStream[Edge]
    val query: StreamingQuery = mk(input.toDS())
      .writeStream
      .outputMode("complete")
      .format("memory")
      .queryName(queryName)
      .start()
    try {
      batches.foreach { b =>
        input.addData(b)
        query.processAllAvailable()
      }
      spark.table(queryName).collect()
        .map(r => r.getLong(0) -> r.getDouble(1)).toMap
    } finally query.stop()
  }

  private def edgesOf(seed: Long, users: Int = 60, maxCard: Int = 40, total: Long = 600L) = {
    val es = GraphStream.generate(Profile("t", users, maxCard, total), dupFactor = 1.3, seed)
    val rows = (0 until es.length).map(i => Edge(i.toLong, es.users(i), es.items(i)))
    (es, rows)
  }

  test("streaming FreeBS over three micro-batches tracks the truth") {
    val (es, rows) = edgesOf(3L)
    val batches = rows.grouped(rows.length / 3 + 1).toSeq
    val got = runStream(batches, "sbs1")(ds =>
      StreamingFree.freeBSEstimates(ds, bigM = 4096L, slices = 4, seed = 17L))
    SliceReference.assertMatches(got, rows, 1e-9)(new BitSlice(4096L, 4, 17L))
    val totalEst = got.values.sum
    assert(math.abs(totalEst - es.totalCardinality) < 0.25 * es.totalCardinality,
      s"total $totalEst vs ${es.totalCardinality}")
    assert(math.abs(got(0L) - es.truth(0)) < 0.5 * es.truth(0),
      s"user0 ${got(0L)} vs ${es.truth(0)}")
  }

  test("streaming FreeRS over three micro-batches tracks the truth") {
    val (es, rows) = edgesOf(5L)
    val batches = rows.grouped(rows.length / 3 + 1).toSeq
    val got = runStream(batches, "srs1")(ds =>
      StreamingFree.freeRSEstimates(ds, bigM = 1024, slices = 4, seed = 29L))
    SliceReference.assertMatches(got, rows, 1e-9)(new RegisterSlice(1024, 4, 5, 29L))
    val totalEst = got.values.sum
    assert(math.abs(totalEst - es.totalCardinality) < 0.25 * es.totalCardinality,
      s"total $totalEst vs ${es.totalCardinality}")
  }

  test("duplicates spanning micro-batches are absorbed by the state") {
    val (_, rows) = edgesOf(7L, users = 20, maxCard = 10, total = 80L)
    // Batch 2 replays batch 1 entirely; batch 3 is new data.
    val b1 = rows.take(40)
    val b3 = rows.drop(40)
    val withDup = runStream(Seq(b1, b1, b3), "sdup")(ds =>
      StreamingFree.freeBSEstimates(ds, 4096L, 2, 17L))
    val without = runStream(Seq(b1, b3), "snodup")(ds =>
      StreamingFree.freeBSEstimates(ds, 4096L, 2, 17L))
    assert(withDup.keySet == without.keySet)
    withDup.foreach { case (u, v) =>
      assert(math.abs(v - without(u)) < 1e-6, s"user $u: $v vs ${without(u)}")
    }
  }

  test("single slice, one edge per batch: equals the sequential FreeBS run") {
    val edges = Seq(
      Edge(0, 1, 10), Edge(1, 2, 20), Edge(2, 1, 11), Edge(3, 1, 10), // dup
      Edge(4, 2, 21), Edge(5, 3, 30), Edge(6, 1, 12))
    val got = runStream(edges.map(Seq(_)), "sseq")(ds =>
      StreamingFree.freeBSEstimates(ds, 64L, 1, 17L))
    val seq = new FreeBS(64L, 17L)
    edges.foreach(e => seq.update(e.s, e.d))
    Seq(1L, 2L, 3L).foreach { u =>
      assert(math.abs(got(u) - seq.estimate(u)) < 1e-9,
        s"user $u streaming ${got(u)} vs sequential ${seq.estimate(u)}")
    }
  }

  test("single slice, one edge per batch: equals the sequential FreeRS run") {
    val edges = Seq(
      Edge(0, 1, 10), Edge(1, 2, 20), Edge(2, 1, 11), Edge(3, 2, 20), // dup
      Edge(4, 3, 30), Edge(5, 1, 12))
    val got = runStream(edges.map(Seq(_)), "sseqr")(ds =>
      StreamingFree.freeRSEstimates(ds, 64, 1, 29L))
    val seq = new FreeRS(64, 5, 29L)
    edges.foreach(e => seq.update(e.s, e.d))
    Seq(1L, 2L, 3L).foreach { u =>
      assert(math.abs(got(u) - seq.estimate(u)) < 1e-9, s"user $u")
    }
  }

  test("estimates are live after every micro-batch (anytime availability)") {
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    val input = MemoryStream[Edge]
    val query = StreamingFree.freeBSEstimates(input.toDS(), 1024L, 2, 17L)
      .writeStream.outputMode("complete").format("memory").queryName("slive").start()
    try {
      input.addData(Seq(Edge(0, 1, 1), Edge(1, 1, 2)))
      query.processAllAvailable()
      val mid = spark.table("slive").collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
      assert(mid.contains(1L) && mid(1L) > 0, s"no live estimate after batch 1: $mid")
      input.addData(Seq(Edge(2, 1, 3), Edge(3, 2, 1)))
      query.processAllAvailable()
      val fin = spark.table("slive").collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
      assert(fin(1L) > mid(1L), "user 1 estimate did not grow")
      assert(fin.contains(2L))
    } finally query.stop()
  }
}
