package repro.dist

import repro.SparkSpec
import repro.core.{BitSlice, FreeBS, FreeRS, RegisterSlice}
import repro.data.{GraphStream, Profile}

class SlicedFreeSpec extends SparkSpec {
  import SlicedFree.Edge

  private def edgesOf(esSeed: Long, users: Int = 60, maxCard: Int = 40, total: Long = 600L) = {
    val es = GraphStream.generate(Profile("t", users, maxCard, total), dupFactor = 1.3, esSeed)
    val rows = (0 until es.length).map(i => Edge(i.toLong, es.users(i), es.items(i)))
    (es, rows)
  }

  test("P = 1 reproduces the sequential FreeBS estimates exactly") {
    val (es, rows) = edgesOf(3L)
    import spark.implicits._
    val ds = spark.createDataset(rows)
    val got = SlicedFree.freeBS(ds, bigM = 4096L, slices = 1, seed = 17L)
      .collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    val seq = new FreeBS(4096L, 17L)
    (0 until es.length).foreach(i => seq.update(es.users(i), es.items(i)))
    (0 until es.userCount).foreach { u =>
      val e = got.getOrElse(u.toLong, 0.0)
      assert(math.abs(e - seq.estimate(u.toLong)) < 1e-6,
        s"user $u sliced $e vs sequential ${seq.estimate(u.toLong)}")
    }
  }

  test("P = 1 reproduces the sequential FreeRS estimates exactly") {
    val (es, rows) = edgesOf(5L)
    import spark.implicits._
    val ds = spark.createDataset(rows)
    val got = SlicedFree.freeRS(ds, bigM = 1024, slices = 1, seed = 29L)
      .collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    val seq = new FreeRS(1024, 5, 29L)
    (0 until es.length).foreach(i => seq.update(es.users(i), es.items(i)))
    (0 until es.userCount).foreach { u =>
      val e = got.getOrElse(u.toLong, 0.0)
      assert(math.abs(e - seq.estimate(u.toLong)) < 1e-6, s"user $u")
    }
  }

  test("sliced FreeBS (P = 8) estimates stay close to the truth") {
    val (es, rows) = edgesOf(7L, users = 100, maxCard = 80, total = 2000L)
    import spark.implicits._
    val ds = spark.createDataset(rows)
    val got = SlicedFree.freeBS(ds, bigM = 1L << 16, slices = 8, seed = 17L)
      .collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    SliceReference.assertMatches(got, rows, 1e-6)(new BitSlice(1L << 16, 8, 17L))
    val totalEst = got.values.sum
    assert(math.abs(totalEst - es.totalCardinality) < 0.1 * es.totalCardinality,
      s"total $totalEst vs ${es.totalCardinality}")
    // The heaviest user is individually well-estimated at this load.
    assert(math.abs(got(0L) - es.truth(0)) < 0.35 * es.truth(0),
      s"user0 ${got(0L)} vs ${es.truth(0)}")
  }

  test("sliced FreeRS (P = 8) estimates stay close to the truth") {
    val (es, rows) = edgesOf(9L, users = 100, maxCard = 80, total = 2000L)
    import spark.implicits._
    val ds = spark.createDataset(rows)
    val got = SlicedFree.freeRS(ds, bigM = 1 << 13, slices = 8, seed = 29L)
      .collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    SliceReference.assertMatches(got, rows, 1e-6)(new RegisterSlice(1 << 13, 8, 5, 29L))
    val totalEst = got.values.sum
    assert(math.abs(totalEst - es.totalCardinality) < 0.15 * es.totalCardinality,
      s"total $totalEst vs ${es.totalCardinality}")
  }

  test("final bit-array state is identical to the sequential run") {
    val (es, rows) = edgesOf(11L)
    val (bs, rs) = (new FreeBS(4096L, 17L), new FreeRS(1024, 5, 29L))
    (0 until es.length).foreach { i =>
      bs.update(es.users(i), es.items(i)); rs.update(es.users(i), es.items(i))
    }
    val seqBits = (0L until 4096L).filter(bs.bits.get)
    // Slice k's local position i is the sequential array's position i·P + k.
    for (p <- Seq(1, 8)) {
      val (bitSlices, _) = SliceReference.run(rows)(new BitSlice(4096L, p, 17L))
      val sliceBits = (for ((k, slice) <- bitSlices.zipWithIndex; i <- 0L until k.size if k.bits.get(i))
        yield i * p + slice).sorted
      val same = sliceBits == seqBits
      assert(same, s"P=$p: ${sliceBits.size} set bits, ${seqBits.size} sequentially, " +
        s"${sliceBits.diff(seqBits).size} elsewhere")
      val (regSlices, _) = SliceReference.run(rows)(new RegisterSlice(1024, p, 5, 29L))
      for ((k, slice) <- regSlices.zipWithIndex; i <- 0 until k.size.toInt)
        assert(k.registers.get(i) == rs.registers.get(i * p + slice), s"P=$p register ${i * p + slice}")
    }
  }

  test("slice count must divide the array size") {
    val (_, rows) = edgesOf(13L)
    import spark.implicits._
    val ds = spark.createDataset(rows)
    intercept[IllegalArgumentException](SlicedFree.freeBS(ds, bigM = 1000L, slices = 3))
    intercept[IllegalArgumentException](SlicedFree.freeRS(ds, bigM = 1000, slices = 7))
  }

  test("estimates are invariant to input partitioning (P = 4)") {
    val (_, rows) = edgesOf(15L)
    import spark.implicits._
    val a = SlicedFree.freeBS(spark.createDataset(rows).repartition(2), 4096L, 4, 17L)
      .collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    val b = SlicedFree.freeBS(spark.createDataset(rows).repartition(13), 4096L, 4, 17L)
      .collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    assert(a.keySet == b.keySet)
    a.foreach { case (u, v) => assert(math.abs(v - b(u)) < 1e-6, s"user $u") }
  }

  test("duplicates across the stream do not inflate sliced estimates") {
    val (es, rows) = edgesOf(17L)
    import spark.implicits._
    val once = SlicedFree.freeBS(spark.createDataset(rows), 4096L, 4, 17L)
      .agg(org.apache.spark.sql.functions.sum("estimate")).collect()(0).getDouble(0)
    // Double every edge (same t ordering preserved within duplicates appended after).
    val doubled = rows ++ rows.map(e => e.copy(t = e.t + rows.length))
    val twice = SlicedFree.freeBS(spark.createDataset(doubled), 4096L, 4, 17L)
      .agg(org.apache.spark.sql.functions.sum("estimate")).collect()(0).getDouble(0)
    assert(math.abs(once - twice) < 1e-6, s"duplicate replay changed total: $once vs $twice")
  }
}
