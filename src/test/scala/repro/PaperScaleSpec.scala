package repro

import java.nio.ByteBuffer
import java.security.MessageDigest

import repro.core.{FreeBS, FreeRS, UserCardinalitySketch}
import repro.data.{GraphStream, Profile}
import repro.eval.Experiments

/** FreeBS and FreeRS at the paper's scale: M = 5·10⁸ bits and 10⁸ 5-bit
  * registers over chicago at full scale (σ = 1, data seed 7: 1.97 M users,
  * 12.9 M edges). Every user's final estimate must hash to the digest the
  * benchmark's `anytime-paper-scale` workload records as `digest.freebs` /
  * `digest.freers`, so a change to any estimate at this scale fails here.
  */
class PaperScaleSpec extends SparkSpec {

  /** SHA-256 over the IEEE-754 bits of users 0 until `users`'s estimates. */
  private def digest(sk: UserCardinalitySketch, users: Int): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = ByteBuffer.allocate(8)
    (0 until users).foreach { u =>
      buf.clear()
      md.update(buf.putLong(java.lang.Double.doubleToLongBits(sk.estimate(u.toLong))).array())
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  test("every estimate at the paper's scale hashes to the benchmark's recorded digest") {
    val st = GraphStream.generate(Profile.chicago, Experiments.DefaultDup, 7L)
    val (bs, rs) = (new FreeBS(500_000_000L, 17L), new FreeRS(100_000_000, Experiments.RegisterWidth, 29L))
    Experiments.feedAll(Seq(bs, rs), st)
    assert(digest(bs, st.userCount) == "eaee4f936721ba7c18c0868ca1f3c88f3fdbe267711c3b16537241c8790c6733")
    assert(digest(rs, st.userCount) == "5f943d4e996b3afebb18d78981152cc9527294ee39a1cbdcab17bf07fb6304bc")
  }
}
