package repro.core

/** Coverage computation with the paper's unit-level filtering (§4.1.5),
  * computed in full ahead of time as a unit index.
  *
  * Call a unit *good* on a row when it is defined on the row's source and its
  * output is a substring of the row's target. A transformation can cover a
  * row only if every one of its units is good there, so the index holds, for
  * each distinct unit, a bitset over rows marking where it is good, plus the
  * unit's output on each of those rows. Coverage of a transformation is the
  * AND of its units' bitsets, followed by an exact check on the surviving
  * rows: the stored outputs, concatenated in order, must equal the target.
  * No unit is applied to a row more than once. Distinct units number in the
  * thousands while distinct transformations (Cartesian products of units)
  * number in the hundreds of thousands, so the index absorbs the bulk of the
  * work.
  *
  * This is the only coverage kernel: the local and Spark discovery paths and
  * the Auto-Join baseline all count through it.
  */
object Coverage {

  /** Application counters over transformation × row pairs: a `hit` is an
    * application filtered by the unit index (some unit of the transformation
    * is not good on the row), a `miss` is a row that survived the filter and
    * was verified exactly. `hits + misses` is always transformations × rows,
    * and the hit ratio is 1 − verified / (T·R).
    */
  final case class CacheStats(hits: Long, misses: Long) {
    def +(o: CacheStats): CacheStats = CacheStats(hits + o.hits, misses + o.misses)
    def hitRatio: Double = if (hits + misses == 0) 0.0 else hits.toDouble / (hits + misses)
  }
  object CacheStats { val zero: CacheStats = CacheStats(0L, 0L) }

  /** One input row. */
  final case class RowState(src: String, tgt: String)

  def rowStates(pairs: Seq[(String, String)]): Array[RowState] =
    pairs.iterator.map { case (s, t) => RowState(s, t) }.toArray

  /** The unit index over a fixed array of rows, filled in as units are first
    * seen. Not thread-safe.
    */
  private final class UnitIndex(rows: Array[RowState]) {
    private val n     = rows.length
    private val words = (n + 63) >>> 6
    private val tgts  = rows.map(_.tgt)
    // Every row: all bits set, except those past row n in the last word.
    private val all =
      Array.tabulate(words)(w => if (w < words - 1 || (n & 63) == 0) -1L else (1L << (n & 63)) - 1L)

    /** A unit's good-row bitset and its output on each good row. */
    private final class Entry(val good: Array[Long], val out: Array[String])
    private val entries = new java.util.HashMap[TransformationUnit, Entry]

    /** Rows that survived the bitset AND and were checked exactly. */
    var verified = 0L

    private def entry(u: TransformationUnit): Entry = {
      val known = entries.get(u)
      if (known != null) known
      else {
        val e = new Entry(new Array[Long](words), new Array[String](n))
        var r = 0
        while (r < n) {
          u(rows(r).src) match {
            case Some(o) if tgts(r).contains(o) =>
              e.good(r >>> 6) |= 1L << (r & 63)
              e.out(r) = o
            case _ =>
          }
          r += 1
        }
        entries.put(u, e)
        e
      }
    }

    /** The rows `t` covers, in ascending order, passed to `visit`; returns
      * how many there were.
      */
    def covered(t: Transformation, visit: Int => Unit): Int = {
      val k  = t.units.length
      val es = new Array[Entry](k)
      var i  = 0
      while (i < k) { es(i) = entry(t.units(i)); i += 1 }
      var count = 0
      var w     = 0
      while (w < words) {
        var m = all(w)
        i = 0
        while (i < k && m != 0L) { m &= es(i).good(w); i += 1 }
        while (m != 0L) {
          val r   = (w << 6) + java.lang.Long.numberOfTrailingZeros(m)
          val tgt = tgts(r)
          var off = 0
          i = 0
          while (i < k && off >= 0) {
            val o = es(i).out(r)
            off = if (tgt.startsWith(o, off)) off + o.length else -1
            i += 1
          }
          verified += 1
          if (off == tgt.length) { count += 1; visit(r) }
          m &= m - 1
        }
        w += 1
      }
      count
    }
  }

  private val ignore: Int => Unit = _ => ()

  /** Pass 1: coverage *counts* for every transformation, plus the
    * application counters.
    */
  def counts(
      transformations: IndexedSeq[Transformation],
      rows: Array[RowState],
  ): (Array[Int], CacheStats) = {
    val index = new UnitIndex(rows)
    val cov   = new Array[Int](transformations.length)
    var ti    = 0
    while (ti < transformations.length) {
      cov(ti) = index.covered(transformations(ti), ignore)
      ti += 1
    }
    val applications = transformations.length.toLong * rows.length
    (cov, CacheStats(applications - index.verified, index.verified))
  }

  /** Pass 2: exact covered-row index sets for a *small* shortlist of
    * transformations (the greedy set-cover input).
    */
  def coveredRows(
      shortlist: IndexedSeq[Transformation],
      rows: Array[RowState],
  ): Vector[(Transformation, Array[Int])] = {
    val index = new UnitIndex(rows)
    shortlist.iterator.map { t =>
      val covered = Array.newBuilder[Int]
      index.covered(t, covered += _)
      (t, covered.result())
    }.toVector
  }
}
