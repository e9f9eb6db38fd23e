package repro.baselines

import repro.SparkSpec
import repro.core.{BitArray, FloorModHashing, Hashing, RegisterArray, UserCardinalitySketch}
import repro.data.{EdgeStream, Profile}
import repro.eval.{Experiments, Harness}
import scala.collection.mutable

/** The O(m) baselines reduce their hashes with prebuilt `Hashing.Range`s and
  * hoist the per-user half of `f_i(s)`. These copies of their earlier
  * `update`/`estimateNow` reduce every hash with `Math.floorMod` through the
  * `Long`-range functions of `FloorModHashing`, and compute every estimator
  * term afresh on each refresh (no tables, memoised noise terms or integer
  * sums); both must give the same estimates, bit for bit.
  */
private object FloorMod {

  final class FloorCse(bigM: Long, m: Int, seed: Long) extends UserCardinalitySketch {
    val array = new BitArray(bigM)
    override def name: String = "CSE (floorMod)"
    override def update(s: Long, d: Long): Unit = {
      val j = FloorModHashing.itemIndex(d, m.toLong, seed).toInt
      array.set(FloorModHashing.userSelect(s, j, bigM, seed))
      counters.put(s, estimateNow(s))
    }
    def estimateNow(s: Long): Double = {
      var zerosVirtual = 0
      var i = 0
      while (i < m) {
        if (!array.get(FloorModHashing.userSelect(s, i, bigM, seed))) zerosVirtual += 1
        i += 1
      }
      val raw = Lpc.estimate(m, zerosVirtual)
      if (zerosVirtual == 0) raw
      else {
        val noise = -m * math.log(array.zeros.toDouble / bigM)
        math.max(0.0, raw - noise)
      }
    }
    override def memoryBits: Long = array.memoryBits
  }

  final class FloorVhll(bigM: Int, m: Int, seed: Long) extends UserCardinalitySketch {
    val registers = new RegisterArray(bigM, RegisterArray.SharedWidth)
    override def name: String = "vHLL (floorMod)"
    override def update(s: Long, d: Long): Unit = {
      val j = FloorModHashing.itemIndex(d, m.toLong, seed).toInt
      val pos = FloorModHashing.userSelect(s, j, bigM.toLong, seed).toInt
      registers.update(pos, Hashing.rank(d, registers.maxValue, seed))
      counters.put(s, estimateNow(s))
    }
    def estimateNow(s: Long): Double = {
      var sumUser = 0.0
      var zerosUser = 0
      var i = 0
      while (i < m) {
        val r = registers.get(FloorModHashing.userSelect(s, i, bigM.toLong, seed).toInt)
        sumUser += Hll.pow2Neg(r)
        if (r == 0) zerosUser += 1
        i += 1
      }
      val userTerm = Hll.estimate(m, sumUser, zerosUser)
      val globalEst = Hll.estimate(bigM, registers.sumPow2Neg, registers.zeros)
      val noiseTerm = m.toDouble * globalEst / bigM
      math.max(0.0, bigM.toDouble / (bigM - m) * (userTerm - noiseTerm))
    }
    override def memoryBits: Long = registers.memoryBits
  }

  final class FloorHllPlusPlus(m: Int, seed: Long) extends UserCardinalitySketch {
    private val sketches = mutable.HashMap.empty[Long, Array[Byte]]
    override def name: String = "HLL++ (floorMod)"
    override def update(s: Long, d: Long): Unit = {
      val regs = sketches.getOrElseUpdate(s, new Array[Byte](m))
      val pos = FloorModHashing.itemIndex(d, m.toLong, seed).toInt
      val r = Hashing.rank(d, 63, seed)
      if (r > regs(pos)) regs(pos) = r.toByte
      counters.put(s, estimateFrom(regs))
    }
    private def estimateFrom(regs: Array[Byte]): Double = {
      var sum = 0.0
      var zeros = 0
      var i = 0
      while (i < m) {
        val r = regs(i)
        sum += Hll.pow2Neg(r)
        if (r == 0) zeros += 1
        i += 1
      }
      Hll.estimate(m, sum, zeros)
    }
    def estimateNow(s: Long): Double = sketches.get(s).map(estimateFrom).getOrElse(0.0)
    override def memoryBits: Long = sketches.size.toLong * m * HllPlusPlus.Width
  }

  final class FloorLpc(m: Int, seed: Long) extends UserCardinalitySketch {
    private val sketches = mutable.HashMap.empty[Long, BitArray]
    override def name: String = "LPC (floorMod)"
    override def update(s: Long, d: Long): Unit = {
      sketches.getOrElseUpdate(s, new BitArray(m.toLong)).set(FloorModHashing.itemIndex(d, m.toLong, seed))
      counters.put(s, estimateNow(s))
    }
    def estimateNow(s: Long): Double =
      sketches.get(s).map(b => Lpc.estimate(m, b.recountZeros())).getOrElse(0.0)
    override def memoryBits: Long = sketches.size.toLong * m
  }
}

class RangeIdentitySpec extends SparkSpec {

  private type Pair = (UserCardinalitySketch, UserCardinalitySketch, Long => Double, Long => Double)

  private val bits = java.lang.Double.doubleToRawLongBits _

  /** Feeds both sketches of each pair the stream; every user's tracked and
    * fresh estimates must agree by raw bits.
    */
  private def assertSameEstimates(st: EdgeStream, pairs: Seq[Pair]): Unit =
    pairs.foreach { case (now, old, nowFresh, oldFresh) =>
      Harness.run(now, st.users, st.items)
      Harness.run(old, st.users, st.items)
      val users = 0L until st.userCount.toLong
      val differ = users.filter(u =>
        bits(now.estimate(u)) != bits(old.estimate(u)) || bits(nowFresh(u)) != bits(oldFresh(u)))
      assert(differ.isEmpty, s"${now.name}: ${differ.size} users differ, first ${differ.take(5)}")
    }

  test("CSE, vHLL, HLL++ and LPC give the floorMod copies' estimates bit for bit at Table II's settings") {
    val st = Experiments.dataset(Profile.chicago).stream
    val mBits = Experiments.DefaultMBits
    val m = Experiments.DefaultVirtualM
    val regs = (mBits / Experiments.RegisterWidth).toInt
    val hllppM = math.max(2, (mBits / (HllPlusPlus.Width.toLong * st.userCount)).toInt)
    val lpcM = math.max(2, (mBits / st.userCount).toInt)
    val seed = 101L
    val pairs: Seq[Pair] = {
      val (cse, oldCse) = (new Cse(mBits, m, seed), new FloorMod.FloorCse(mBits, m, seed))
      val (vhll, oldVhll) = (new Vhll(regs, m, seed), new FloorMod.FloorVhll(regs, m, seed))
      val (hllpp, oldHllpp) = (new HllPlusPlus(hllppM, seed), new FloorMod.FloorHllPlusPlus(hllppM, seed))
      val (lpc, oldLpc) = (new Lpc(lpcM, seed), new FloorMod.FloorLpc(lpcM, seed))
      Seq((cse, oldCse, cse.estimateNow _, oldCse.estimateNow _),
        (vhll, oldVhll, vhll.estimateNow _, oldVhll.estimateNow _),
        (hllpp, oldHllpp, hllpp.estimateNow _, oldHllpp.estimateNow _),
        (lpc, oldLpc, lpc.estimateNow _, oldLpc.estimateNow _))
    }
    assertSameEstimates(st, pairs)
    pairs.foreach { case (now, _, _, _) =>
      assert((0L until st.userCount.toLong).count(now.estimate(_) > 0.0) > st.userCount / 2,
        s"${now.name}: estimates mostly 0")
    }
  }

  test("CSE and vHLL on small shared arrays give the floorMod copies' estimates bit for bit up to saturation") {
    // Arrays this small fill up on the chicago replica. On the way users
    // are clamped to 0 (noise above their raw estimate) and virtual bitmaps
    // saturate at m·ln m; the streams end on a full bit array (no zero
    // left for CSE's noise term) and with no zero register (vHLL's global
    // linear-counting switch off).
    val st = Experiments.dataset(Profile.chicago).stream
    val (m, seed) = (24, 101L)
    val (cse, oldCse) = (new Cse(4096, m, seed), new FloorMod.FloorCse(4096, m, seed))
    val (vhll, oldVhll) = (new Vhll(1024, m, seed), new FloorMod.FloorVhll(1024, m, seed))
    assertSameEstimates(st, Seq((cse, oldCse, cse.estimateNow _, oldCse.estimateNow _),
      (vhll, oldVhll, vhll.estimateNow _, oldVhll.estimateNow _)))
    assert(cse.array.zeros == 0 && vhll.registers.zeros == 0)
    val users = 0L until st.userCount.toLong
    assert(users.exists(cse.estimate(_) == 0.0), "no CSE user clamped to 0")
    assert(users.exists(cse.estimate(_) == m * math.log(m.toDouble)), "no saturated CSE user")
    assert(users.exists(vhll.estimate(_) == 0.0), "no vHLL user clamped to 0")
  }
}
