package repro.dist

import org.scalatest.Assertions._

import repro.core.{FreeSlice, Hashing, UserCounters}

/** Sequential reference for the Spark paths: P kernels run one after
  * another over the edges in arrival order t, each edge offered to its slice.
  */
object SliceReference {

  /** `slices` kernels made by `newSlice`, fed the edges in t order, and the
    * per-user estimates they give.
    */
  def run[K <: FreeSlice](edges: Seq[SlicedFree.Edge])(newSlice: => K): (IndexedSeq[K], Map[Long, Double]) = {
    val k = newSlice
    val kernels = k +: Vector.fill(k.slices - 1)(newSlice)
    val range = Hashing.Range(k.bigM)
    val est = new UserCounters
    edges.sortBy(_.t).foreach { e =>
      est.add(e.s, kernels(FreeSlice.key(e.s, e.d, range, k.slices, k.seed)).offer(e.s, e.d))
    }
    (kernels, est.iterator.toMap)
  }

  /** Asserts that every user's estimate in `got` is within `tol` of the reference. */
  def assertMatches(got: Map[Long, Double], edges: Seq[SlicedFree.Edge], tol: Double)(
      newSlice: => FreeSlice): Unit = {
    val (_, ref) = run(edges)(newSlice)
    val off = (got.keySet ++ ref.keySet).toSeq.sorted.flatMap { u =>
      val (g, r) = (got.getOrElse(u, 0.0), ref.getOrElse(u, 0.0))
      if (math.abs(g - r) <= tol) None else Some(s"user $u: $g vs reference $r")
    }
    assert(off.isEmpty, off.take(5).mkString("; "))
  }
}
