package repro.dist

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.{GraphStream, Profile}

class ExactCardinalitySpec extends SparkSpec {

  test("perUser matches the generator's ground truth") {
    val es = GraphStream.generate(Profile("t", 50, 30, 250L), dupFactor = 1.5, seed = 3)
    val df = GraphStream.toDF(spark, es)
    val got = ExactCardinality.perUser(df).collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    (0 until 50).foreach(u => assert(got(u.toLong) == es.truth(u), s"user $u"))
  }

  test("perUser is oracle-equivalent to DuckDB on a graph stream") {
    val es = GraphStream.generate(Profile("t", 40, 20, 160L), dupFactor = 1.4, seed = 5)
    val df = GraphStream.toDF(spark, es).select("s", "d")
    Oracle.assertEquivalent(
      ExactCardinality.perUser(df).select(col("s"), col("cardinality")),
      "SELECT s, count(DISTINCT d) AS cardinality FROM edges GROUP BY s",
      "edges" -> df)
  }

  test("perUser is oracle-equivalent to DuckDB on a zipf bipartite stream") {
    // Power-law user cardinalities; items folded into a pool of 500 shared
    // by all users, which also merges some of the top user's items.
    val es = GraphStream.generate(Profile("t", 100, 600, 4000L), dupFactor = 1.25, seed = 9)
    val df = GraphStream.toDF(spark, es).select(col("s"), col("d") % 500 as "d").cache()
    Oracle.assertEquivalent(
      ExactCardinality.perUser(df).select(col("s"), col("cardinality")),
      "SELECT s, count(DISTINCT d) AS cardinality FROM edges GROUP BY s",
      "edges" -> df)
  }

  test("total counts distinct pairs, not edges") {
    val es = GraphStream.generate(Profile("t", 20, 10, 60L), dupFactor = 2.0, seed = 7)
    val df = GraphStream.toDF(spark, es)
    assert(df.count() == 120)
    assert(ExactCardinality.total(df) == 60)
  }

  test("total is oracle-equivalent to DuckDB") {
    val es = GraphStream.generate(Profile("t", 25, 12, 75L), dupFactor = 1.6, seed = 11)
    val df = GraphStream.toDF(spark, es).select("s", "d")
    Oracle.assertEquivalent(
      df.agg(countDistinct(col("s"), col("d")) as "n"),
      "SELECT count(DISTINCT (s, d)) AS n FROM edges",
      "edges" -> df)
    assert(ExactCardinality.total(df) == 75)
  }

  test("duplicate-free stream: total equals edge count") {
    val es = GraphStream.generate(Profile("t", 15, 8, 45L), dupFactor = 1.0, seed = 13)
    val df = GraphStream.toDF(spark, es)
    assert(ExactCardinality.total(df) == df.count())
  }
}
