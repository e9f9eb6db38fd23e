package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec
import repro.core.FreeSketch.Block
import repro.core.PerEdge.raw

/** FreeBS/FreeRS's buffered `update` against per-edge `offer`
  * ([[PerEdge]]): every read, at any point of the stream, must give the same
  * `Double` to the last bit.
  */
class BlockSpec extends SparkSpec {
  import BlockSpec._

  private def check(prop: Prop, tests: Int): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(tests), prop)
    assert(res.passed, s"property failed: ${res.status}")
  }

  private def freeBS(m: Long, seed: Long): Subject = {
    val (sk, ref) = (new FreeBS(m, seed), new PerEdge(new BitSlice(m, 1, seed)))
    Subject(sk, () => sk.bits.zeros.toDouble, ref, () => ref.kernel.bits.zeros.toDouble)
  }

  private def freeRS(m: Int, width: Int, seed: Long): Subject = {
    val (sk, ref) = (new FreeRS(m, width, seed), new PerEdge(new RegisterSlice(m, 1, width, seed)))
    Subject(sk, () => sk.registers.sumPow2Neg, ref, () => ref.kernel.registers.sumPow2Neg)
  }

  /** Users include the extremes; `Long.MinValue` is UserCounters' free-slot key. */
  private val user: Gen[Long] = Gen.frequency(20 -> Gen.chooseNum(0L, 40L),
    1 -> Gen.const(Long.MinValue), 1 -> Gen.const(Long.MaxValue))

  /** Several blocks plus a remainder. */
  private val several: Gen[Int] = for (k <- Gen.chooseNum(2, 4); r <- Gen.chooseNum(0, Block - 1)) yield k * Block + r

  /** Stream lengths around one block, and [[several]] ones. */
  private val length: Gen[Int] = Gen.oneOf(Gen.oneOf(0, 1, Block - 1, Block, Block + 1), several)

  /** Items drawn from a 63-bit range: pairs are distinct with near certainty. */
  private val fresh: Gen[Long] = Gen.chooseNum(0L, Long.MaxValue)

  /** A stream with up to 12 reads at random points, of kinds 0 to `kinds`. */
  private def stream(items: Gen[Long], lengths: Gen[Int] = length, kinds: Int = 3): Gen[Stream] = for {
    n <- lengths
    us <- Gen.listOfN(n, user)
    ds <- Gen.listOfN(n, items)
    k <- Gen.chooseNum(0, 12)
    reads <- Gen.listOfN(k, Gen.zip(Gen.chooseNum(0, n), Gen.chooseNum(0, kinds), user))
  } yield Stream(us.toArray, ds.toArray, reads.map((Read.apply _).tupled))

  /** Feeds `st` to both sides, makes its reads on the way, then reads every
    * user, the total, q and the array at the end; the first difference, if any.
    */
  private def compare(sub: Subject, st: Stream): Option[String] = {
    val sk = sub.sketch
    val ref = sub.ref
    val reads = st.reads.groupBy(_.at)
    var fault = Option.empty[String]
    def same(what: String, got: Double, want: Double): Unit =
      if (fault.isEmpty && raw(got) != raw(want)) fault = Some(s"${sk.name} $what: $got vs $want")
    def read(r: Read): Unit = r.kind match {
      case 0 => same(s"estimate(${r.user}) after ${r.at}", sk.estimate(r.user), ref.counters(r.user))
      case 1 => same(s"estimatedTotal after ${r.at}", sk.estimatedTotal, ref.total)
      case 2 => same(s"q after ${r.at}", sk.q, ref.kernel.q)
      case 3 => same(s"array after ${r.at}", sub.array(), sub.refArray())
      case _ => // through the trait, as Harness, feedAll and tableIIFor read
        same(s"trait estimate(${r.user}) after ${r.at}", (sk: UserCardinalitySketch).estimate(r.user),
          ref.counters(r.user))
    }
    val n = st.users.length
    (0 to n).foreach { i =>
      reads.getOrElse(i, Nil).foreach(read)
      if (i < n) { sk.update(st.users(i), st.items(i)); ref.update(st.users(i), st.items(i)) }
    }
    (st.users.distinct :+ 99L).foreach(u => read(Read(n, 0, u)))
    (1 to 3).foreach(k => read(Read(n, k, 0L)))
    fault
  }

  private def agrees(sub: Subject, st: Stream): Prop = {
    val fault = compare(sub, st)
    Prop(fault.isEmpty) :| fault.getOrElse("")
  }

  test("property: buffered FreeBS/FreeRS equal per-edge offers by raw bits at every read") {
    val subject = Gen.oneOf(
      Gen.oneOf(64L, 4096L, 1L << 16).map(m => () => freeBS(m, 17L)),
      Gen.zip(Gen.oneOf(16, 1024), Gen.oneOf(2, 5)).map { case (m, w) => () => freeRS(m, w, 29L) })
    check(Prop.forAllNoShrink(subject, stream(Gen.chooseNum(0L, 400L), kinds = 4)) { (mk, st) =>
      agrees(mk(), st)
    }, tests = 200)
  }

  test("property: a FreeBS array driven to full (zeros = 0) still agrees") {
    check(Prop.forAllNoShrink(stream(fresh, several)) { s =>
      val sub = freeBS(64L, 17L)
      val ok = agrees(sub, s)
      ok && Prop(sub.array() == 0.0) :| "array not full"
    }, tests = 30)
  }

  test("property: a narrow FreeRS whose registers saturate still agrees") {
    check(Prop.forAllNoShrink(stream(fresh, several)) { s =>
      val sub = freeRS(16, 2, 29L)
      val ok = agrees(sub, s)
      val regs = sub.sketch.asInstanceOf[FreeRS].registers
      ok && Prop((0 until regs.size).forall(regs.get(_) == regs.maxValue)) :| "a register below maxValue"
    }, tests = 30)
  }
}

object BlockSpec {

  /** A sketch under test and its reference, each with its array read:
    * `bits.zeros` for FreeBS, `registers.sumPow2Neg` for FreeRS.
    */
  final case class Subject(sketch: FreeSketch[_ <: FreeSlice], array: () => Double,
                           ref: PerEdge[_ <: FreeSlice], refArray: () => Double)

  /** One read: after `at` edges, of kind 0–4, about `user`. */
  final case class Read(at: Int, kind: Int, user: Long)

  final case class Stream(users: Array[Long], items: Array[Long], reads: Seq[Read])
}
