package repro.core

/** The `Long`-range forms of CSE/vHLL/LPC/HLL++'s hashes, reduced with
  * `Math.floorMod` through [[Hashing.index]]: the specification that the
  * sketches' `Hashing.Range` overloads and hoisted `f_i(s)` are tested
  * against.
  */
object FloorModHashing {

  /** `f_i(s)`: the i-th user-selector hash of CSE/vHLL, uniform in `[0, range)`. */
  def userSelect(s: Long, i: Int, range: Long, seed: Long): Long =
    Hashing.index(Hashing.mix64(seed + Hashing.SelectSalt, s, i.toLong), range)

  /** `h(d)`: the item hash of LPC/CSE/vHLL/HLL, uniform in `[0, m)`. */
  def itemIndex(d: Long, m: Long, seed: Long): Long =
    Hashing.index(Hashing.mix64(seed + Hashing.ItemSalt, d), m)
}
