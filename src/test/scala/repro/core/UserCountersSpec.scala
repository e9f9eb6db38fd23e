package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.Prop.propBoolean
import repro.SparkSpec
import scala.collection.mutable

/** `UserCounters` against a `mutable.HashMap` model, over random `add`,
  * `put` and `apply` sequences.
  */
class UserCountersSpec extends SparkSpec {
  import UserCountersSpec._

  private def check(prop: Prop, tests: Int): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(tests), prop)
    assert(res.passed, s"property failed: ${res.status}")
  }

  /** Ids whose `mix64` agree in the low 10 bits: they probe from the same
    * slot in every table of up to 1,024 slots.
    */
  private val colliding: Vector[Long] = {
    val target = Hashing.mix64(0L) & 1023
    Iterator.iterate(1L)(_ + 1).filter(k => (Hashing.mix64(k) & 1023) == target).take(24).toVector
  }

  // 0, negatives, the extremes (Long.MinValue is the free-slot key), colliding
  // ids, a dense block of small ids that forces several resizes, and any id.
  private val key: Gen[Long] = Gen.frequency(
    2 -> Gen.oneOf(0L, -1L, -7L, Long.MaxValue, Long.MinValue, Long.MinValue + 1),
    3 -> Gen.oneOf(0L +: colliding),
    4 -> Gen.chooseNum(-200L, 400L),
    1 -> Gen.chooseNum(Long.MinValue, Long.MaxValue),
  )
  private val value: Gen[Double] = Gen.frequency(1 -> Gen.const(0.0), 3 -> Gen.chooseNum(-8.0, 8.0))
  private val op: Gen[Op] = Gen.frequency(
    5 -> Gen.zip(key, value).map { case (s, v) => Add(s, v) },
    2 -> Gen.zip(key, value).map { case (s, v) => Put(s, v) },
    2 -> key.map(Read(_)),
  )

  test("property: add/put/apply/iterator agree with a HashMap model through resizes") {
    check(Prop.forAllNoShrink(Gen.listOfN(1500, op)) { ops =>
      val t = new UserCounters
      val model = mutable.HashMap.empty[Long, Double]
      val reads = ops.forall {
        case Add(s, inc) =>
          t.add(s, inc)
          if (inc != 0.0) model(s) = model.getOrElse(s, 0.0) + inc
          true
        case Put(s, v) =>
          t.put(s, v)
          model(s) = v
          true
        case Read(s) => t(s) == model.getOrElse(s, 0.0)
      }
      val listed = t.iterator.toList
      // Over 128 users: the 16-slot table has doubled at least five times.
      (reads :| "apply mid-sequence") &&
        ((model.size > 128) :| s"only ${model.size} users") &&
        ((listed.map(_._1).distinct.size == listed.size) :| "iterator repeats a user") &&
        ((listed.toMap == model) :| "iterator differs from the model") &&
        (model.forall { case (s, v) => t(s) == v } :| "apply at the end") &&
        ((colliding :+ Long.MinValue).forall(s => t(s) == model.getOrElse(s, 0.0)) :| "colliding or free-slot ids")
    }, tests = 60)
  }

  test("add(s, 0.0) records nothing; put(s, 0.0) records s") {
    Seq(5L, 0L, Long.MinValue, Long.MaxValue).foreach { s =>
      val t = new UserCounters
      t.add(s, 0.0)
      assert(t.iterator.isEmpty && t(s) == 0.0)
      t.put(s, 0.0)
      assert(t.iterator.toList == List((s, 0.0)))
      t.add(s, 1.5)
      t.add(s, 0.0)
      assert(t.iterator.toList == List((s, 1.5)) && t(s) == 1.5)
    }
  }

  test("every one of 100,000 users is listed once with its own sum") {
    val t = new UserCounters
    (0L until 100000L).foreach(s => t.add(s * 7919 - 50000, s.toDouble + 1))
    (0L until 100000L by 3).foreach(s => t.add(s * 7919 - 50000, 0.5))
    val listed = t.iterator.toList
    assert(listed.size == 100000 && listed.map(_._1).toSet.size == 100000)
    listed.foreach { case (k, v) =>
      val s = (k + 50000) / 7919
      assert(v == s.toDouble + 1 + (if (s % 3 == 0) 0.5 else 0.0))
    }
  }
}

object UserCountersSpec {
  private sealed trait Op
  private final case class Add(s: Long, inc: Double) extends Op
  private final case class Put(s: Long, v: Double) extends Op
  private final case class Read(s: Long) extends Op
}
