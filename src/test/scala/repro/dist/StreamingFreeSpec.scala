package repro.dist

import java.nio.file.{Files, Path}
import java.util.Comparator

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQuery
import repro.SparkSpec
import repro.core.{BitSlice, FreeBS, FreeRS, FreeSlice, RegisterSlice}
import repro.core.PerEdge.raw
import repro.data.{GraphStream, Profile}

class StreamingFreeSpec extends SparkSpec {
  import StreamingFree.Edge

  private type Query = Dataset[Edge] => DataFrame

  /** Starts `mk` over `input`, written in Complete mode to the in-memory
    * table `queryName`, checkpointed to `checkpoint` if one is given.
    */
  private def start(input: MemoryStream[Edge], queryName: String,
                    checkpoint: Option[String] = None)(mk: Query): StreamingQuery = {
    val writer = mk(input.toDS()).writeStream.outputMode("complete").format("memory")
      .queryName(queryName)
    checkpoint.fold(writer)(writer.option("checkpointLocation", _)).start()
  }

  /** Feeds `batches` to `query` one micro-batch at a time; returns the
    * (user → estimate) table of the in-memory sink after each.
    */
  private def feed(query: StreamingQuery, input: MemoryStream[Edge],
                   batches: Seq[Seq[Edge]]): Seq[Map[Long, Double]] =
    batches.map { b =>
      input.addData(b)
      query.processAllAvailable()
      spark.table(query.name).collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    }

  private def memoryStream(): MemoryStream[Edge] = {
    implicit val sqlCtx = spark.sqlContext
    import spark.implicits._
    MemoryStream[Edge]
  }

  /** Runs `mk` over `batches` fed one micro-batch at a time; returns the
    * sink's table after each micro-batch.
    */
  private def runStream(batches: Seq[Seq[Edge]], queryName: String)(mk: Query): Seq[Map[Long, Double]] = {
    val input = memoryStream()
    val query = start(input, queryName)(mk)
    try feed(query, input, batches) finally query.stop()
  }

  /** Asserts that the table after each micro-batch matches the kernels made
    * by `newSlice`, run sequentially over the edges fed so far.
    */
  private def assertEveryBatch(seen: Seq[Map[Long, Double]], batches: Seq[Seq[Edge]])(
      newSlice: => FreeSlice): Unit =
    seen.zip(batches.scanLeft(Seq.empty[Edge])(_ ++ _).tail).foreach { case (got, prefix) =>
      SliceReference.assertMatches(got, prefix, 1e-9)(newSlice)
    }

  private def edgesOf(seed: Long, users: Int = 60, maxCard: Int = 40, total: Long = 600L) = {
    val es = GraphStream.generate(Profile("t", users, maxCard, total), dupFactor = 1.3, seed)
    val rows = (0 until es.length).map(i => Edge(i.toLong, es.users(i), es.items(i)))
    (es, rows)
  }

  test("streaming FreeBS over three micro-batches tracks the truth") {
    val (es, rows) = edgesOf(3L)
    val batches = rows.grouped(rows.length / 3 + 1).toSeq
    val seen = runStream(batches, "sbs1")(ds =>
      StreamingFree.freeBSEstimates(ds, bigM = 4096L, slices = 4, seed = 17L))
    assertEveryBatch(seen, batches)(new BitSlice(4096L, 4, 17L))
    val got = seen.last
    val totalEst = got.values.sum
    assert(math.abs(totalEst - es.totalCardinality) < 0.25 * es.totalCardinality,
      s"total $totalEst vs ${es.totalCardinality}")
    assert(math.abs(got(0L) - es.truth(0)) < 0.5 * es.truth(0),
      s"user0 ${got(0L)} vs ${es.truth(0)}")
  }

  test("streaming FreeRS over three micro-batches tracks the truth") {
    val (es, rows) = edgesOf(5L)
    val batches = rows.grouped(rows.length / 3 + 1).toSeq
    val seen = runStream(batches, "srs1")(ds =>
      StreamingFree.freeRSEstimates(ds, bigM = 1024, slices = 4, seed = 29L))
    assertEveryBatch(seen, batches)(new RegisterSlice(1024, 4, 5, 29L))
    val got = seen.last
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
      StreamingFree.freeBSEstimates(ds, 4096L, 2, 17L)).last
    val without = runStream(Seq(b1, b3), "snodup")(ds =>
      StreamingFree.freeBSEstimates(ds, 4096L, 2, 17L)).last
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
      StreamingFree.freeBSEstimates(ds, 64L, 1, 17L)).last
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
      StreamingFree.freeRSEstimates(ds, 64, 1, 29L)).last
    val seq = new FreeRS(64, 5, 29L)
    edges.foreach(e => seq.update(e.s, e.d))
    Seq(1L, 2L, 3L).foreach { u =>
      assert(math.abs(got(u) - seq.estimate(u)) < 1e-9, s"user $u")
    }
  }

  test("estimates are live after every micro-batch (anytime availability)") {
    val batches = Seq(Seq(Edge(0, 1, 1), Edge(1, 1, 2)), Seq(Edge(2, 1, 3), Edge(3, 2, 1)))
    val seen = runStream(batches, "slive")(ds => StreamingFree.freeBSEstimates(ds, 1024L, 2, 17L))
    val (mid, fin) = (seen(0), seen(1))
    assert(mid.contains(1L) && mid(1L) > 0, s"no live estimate after batch 1: $mid")
    assert(fin(1L) > mid(1L), "user 1 estimate did not grow")
    assert(fin.contains(2L))
  }

  test("a query restarted from its checkpoint gives the uninterrupted answer, by raw bits") {
    val (_, rows) = edgesOf(3L)
    val batches = rows.grouped(rows.length / 3 + 1).toSeq
    val mk: Query = ds => StreamingFree.freeBSEstimates(ds, bigM = 4096L, slices = 4, seed = 17L)
    val whole = runStream(batches, "sfull")(mk).last
    val checkpoint = Files.createTempDirectory("streaming-free-restart")
    try {
      val input = memoryStream()
      val first = start(input, "srestart", Some(checkpoint.toString))(mk)
      try feed(first, input, batches.take(1)) finally first.stop()
      val again = start(input, "srestart", Some(checkpoint.toString))(mk)
      val restarted = try feed(again, input, batches.drop(1)).last finally again.stop()
      assert(restarted.keySet == whole.keySet)
      val off = whole.keys.toSeq.sorted.filter(u => raw(restarted(u)) != raw(whole(u)))
      assert(off.isEmpty, off.take(5).map(u => s"user $u: ${restarted(u)} vs ${whole(u)}").mkString("; "))
      SliceReference.assertMatches(restarted, rows, 1e-9)(new BitSlice(4096L, 4, 17L))
    } finally deleteTree(checkpoint)
  }

  private def deleteTree(root: Path): Unit = {
    val paths = Files.walk(root)
    try paths.sorted(Comparator.reverseOrder[Path]()).forEach(p => Files.delete(p)) finally paths.close()
  }
}
