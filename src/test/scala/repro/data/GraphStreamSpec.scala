package repro.data

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}

class GraphStreamSpec extends SparkSpec {

  private val tiny = Profile.sanjose.scaled(0.001) // 8387 users, 23074 total

  test("scaled profile arithmetic") {
    val p = Profile("x", 1000, 5000, 10000L).scaled(0.01)
    assert(p.users == 10 && p.maxCard == 50 && p.totalCard == 100)
  }

  test("scaled profile floors maxCard at twice the implied mean") {
    // mean stays 10 under scaling; 500×0.01 = 5 would be infeasible → 20.
    val p = Profile("x", 1000, 500, 10000L).scaled(0.01)
    assert(p.users == 10 && p.maxCard == 20 && p.totalCard == 100)
  }

  test("no paper profile hits the maxCard floor at the bench scale (1/100)") {
    Profile.all.foreach { p =>
      val s = p.scaled(0.01)
      assert(s.maxCard == math.max(1, math.round(p.maxCard * 0.01).toInt),
        s"${p.name}: floor engaged at sigma=0.01")
    }
  }

  test("scaling never drops below one user / unit cardinality") {
    val p = Profile("x", 10, 5, 20L).scaled(1e-6)
    assert(p.users >= 1 && p.maxCard >= 1 && p.totalCard >= p.users)
  }

  test("fitTheta hits the target total within 2%") {
    val theta = GraphStream.fitTheta(tiny.users, tiny.maxCard, tiny.totalCard)
    val cards = GraphStream.cardinalities(tiny)
    val total = cards.map(_.toLong).sum
    assert(theta > 0)
    assert(math.abs(total - tiny.totalCard).toDouble / tiny.totalCard < 0.02,
      s"total $total vs target ${tiny.totalCard}")
  }

  test("cardinalities: first user gets maxCard, all ≥ 1, non-increasing") {
    val cards = GraphStream.cardinalities(tiny)
    assert(cards.length == tiny.users)
    assert(cards(0) == tiny.maxCard)
    assert(cards.forall(_ >= 1))
    cards.sliding(2).foreach(w => assert(w(0) >= w(1)))
  }

  test("every paper profile at sigma = 0.001 is generable with targets met") {
    Profile.all.foreach { p =>
      val scaled = p.scaled(0.001)
      val cards = GraphStream.cardinalities(scaled)
      val total = cards.map(_.toLong).sum
      assert(cards.max == scaled.maxCard, s"${p.name}: max ${cards.max} vs ${scaled.maxCard}")
      assert(math.abs(total - scaled.totalCard).toDouble / scaled.totalCard < 0.05,
        s"${p.name}: total $total vs ${scaled.totalCard}")
    }
  }

  test("generated stream has the requested duplication factor") {
    val es = GraphStream.generate(tiny, dupFactor = 1.5, seed = 3)
    assert(es.length == math.round(es.totalCardinality * 1.5).toInt)
  }

  test("distinct pairs in the stream equal the truth exactly") {
    val p = Profile("t", 50, 40, 300L)
    val es = GraphStream.generate(p, dupFactor = 1.4, seed = 5)
    val perUser = scala.collection.mutable.Map.empty[Long, scala.collection.mutable.Set[Long]]
    (0 until es.length).foreach { i =>
      perUser.getOrElseUpdate(es.users(i), scala.collection.mutable.Set.empty) += es.items(i)
    }
    (0 until p.users).foreach { u =>
      assert(perUser(u.toLong).size == es.truth(u),
        s"user $u: ${perUser(u.toLong).size} distinct vs truth ${es.truth(u)}")
    }
  }

  test("item ids are namespaced per user (no cross-user sharing)") {
    val es = GraphStream.generate(Profile("t", 20, 10, 60L), seed = 7)
    (0 until es.length).foreach { i =>
      assert(es.items(i) >> 32 == es.users(i))
    }
  }

  test("dupFactor = 1 produces no duplicates") {
    val es = GraphStream.generate(Profile("t", 30, 20, 120L), dupFactor = 1.0, seed = 9)
    val pairs = (0 until es.length).map(i => (es.users(i), es.items(i)))
    assert(pairs.distinct.size == pairs.size)
  }

  test("generation is deterministic in the seed") {
    val a = GraphStream.generate(tiny, seed = 11)
    val b = GraphStream.generate(tiny, seed = 11)
    val c = GraphStream.generate(tiny, seed = 12)
    assert(a.users.sameElements(b.users) && a.items.sameElements(b.items))
    assert(!a.users.sameElements(c.users))
  }

  test("stream is shuffled: users do not arrive in sorted blocks") {
    val es = GraphStream.generate(tiny, seed = 13)
    val firstQuarter = es.users.take(es.length / 4)
    // User 0 has many pairs; a shuffled stream scatters them everywhere.
    assert(firstQuarter.count(_ == 0L) > 0)
    assert(firstQuarter.distinct.length > 100)
  }

  test("rejects dupFactor below 1") {
    intercept[IllegalArgumentException](GraphStream.generate(tiny, dupFactor = 0.5))
  }

  test("EdgeStream summary statistics") {
    val es = GraphStream.generate(Profile("t", 10, 8, 30L), seed = 17)
    assert(es.userCount == 10)
    assert(es.maxCardinality == 8)
    assert(es.totalCardinality == es.truth.map(_.toLong).sum)
  }

  test("profile validation rejects inconsistent targets") {
    intercept[IllegalArgumentException](Profile("bad", 10, 5, 5L)) // total < users
    intercept[IllegalArgumentException](Profile("bad", 0, 5, 10L))
    Seq(0.0, -1.0, Double.NaN, Double.PositiveInfinity).foreach { sigma =>
      intercept[IllegalArgumentException](Profile.chicago.scaled(sigma))
    }
  }

  /** The stream's (s, d) edges, duplicates included, as a DataFrame. */
  private def edges(es: EdgeStream): DataFrame = {
    import spark.implicits._
    es.users.zip(es.items).toSeq.toDF("s", "d")
  }

  test("truth is oracle-equivalent to DuckDB's per-user count(DISTINCT d)") {
    import spark.implicits._
    for (es <- Seq(GraphStream.generate(Profile("t", 40, 20, 160L), dupFactor = 1.4, seed = 5),
                   GraphStream.generate(Profile("t", 100, 600, 4000L), dupFactor = 1.25, seed = 9))) {
      Oracle.assertEquivalent(
        es.truth.indices.map(u => (u.toLong, es.truth(u).toLong)).toDF("s", "cardinality"),
        "SELECT s, count(DISTINCT d) AS cardinality FROM edges GROUP BY s",
        "edges" -> edges(es))
    }
  }

  test("totalCardinality is oracle-equivalent to DuckDB's count(DISTINCT (s, d))") {
    import spark.implicits._
    val es = GraphStream.generate(Profile("t", 25, 12, 75L), dupFactor = 1.6, seed = 11)
    assert(es.length > es.totalCardinality) // duplicates present: edges ≠ distinct pairs
    Oracle.assertEquivalent(
      Seq(es.totalCardinality).toDF("n"),
      "SELECT count(DISTINCT (s, d)) AS n FROM edges",
      "edges" -> edges(es))
  }
}
