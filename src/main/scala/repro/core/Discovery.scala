package repro.core

import repro.core.TransformationGen.GenConfig

/** End-to-end transformation discovery (the paper's core algorithm, §4.1):
  * placeholders → skeletons → candidate generation (with hash-set dedup) →
  * coverage (through the unit index of [[Coverage]]) → max-coverage transformation
  * and greedy minimal cover set.
  */
object Discovery {

  /** Full configuration of a discovery run. `supportThreshold` is a fraction
    * of the input rows (the paper uses 1% on Open data, 0 elsewhere);
    * `minSupportRows` is the absolute floor of §5.3 (a transformation needs
    * at least two supporting rows to be distinguishable from a literal).
    * `shortlistSize` bounds the exact-cover second pass: only that many
    * top-coverage transformations compete in the greedy cover.
    */
  final case class DiscoveryConfig(
      gen: GenConfig = GenConfig(),
      supportThreshold: Double = 0.0,
      minSupportRows: Int = 2,
      shortlistSize: Int = 2000,
  ) extends Serializable

  /** The pruning counters reported in the paper's Table 3. `cacheHits`
    * counts transformation × row applications filtered by the unit index of
    * [[Coverage]]; `cacheMisses` counts the rows that survived the filter and
    * were verified exactly (see [[Coverage.CacheStats]]).
    */
  final case class PruningStats(
      generated: Long,
      toTry: Long,
      cacheHits: Long,
      cacheMisses: Long,
  ) {
    def duplicates: Long       = generated - toTry
    def duplicateRatio: Double = if (generated == 0) 0.0 else duplicates.toDouble / generated
    def cacheHitRatio: Double =
      if (cacheHits + cacheMisses == 0) 0.0 else cacheHits.toDouble / (cacheHits + cacheMisses)
  }

  /** Result of a discovery run over `nRows` input pairs. Coverages are
    * fractions of the input pairs; `coverSet` is the greedy minimal cover in
    * selection order.
    */
  final case class DiscoveryResult(
      nRows: Int,
      top: Option[(Transformation, Int)],
      coverSet: Vector[CoverSet.Chosen],
      stats: PruningStats,
      elapsedMs: Long,
  ) {
    def topCoverage: Double = top.fold(0.0)(_._2.toDouble / math.max(1, nRows))
    def setCoverage: Double =
      CoverSet.unionCoverage(coverSet, nRows).toDouble / math.max(1, nRows)
    def transformations: Vector[Transformation] = coverSet.map(_.t)
  }

  /** Runs discovery locally over explicit (source, target) pairs. */
  def discover(
      pairs: Seq[(String, String)],
      cfg: DiscoveryConfig = DiscoveryConfig(),
  ): DiscoveryResult = {
    val t0 = System.nanoTime()
    val (distinct, genStats) = TransformationGen.forPairs(pairs, cfg.gen)
    val rows                 = Coverage.rowStates(pairs)
    val (counts, cacheStats) = Coverage.counts(distinct, rows)
    // Pure-literal transformations are degenerate (they cover a row only by
    // matching its exact target, §5.3) and are excluded from both the top
    // answer and the cover set.
    val ranked = counts.indices.iterator
      .filter(i => counts(i) >= 1 && !distinct(i).isConstant)
      .map(i => (distinct(i), counts(i)))
      .toVector
    finish(
      pairs.size, ranked, cacheStats, rows,
      PruningStats(genStats.generated, distinct.size.toLong, cacheStats.hits, cacheStats.misses),
      cfg, t0,
    )
  }

  /** A ranked transformation with its sort key: coverage count descending,
    * then fewer placeholders, then `render`, then `order` (the position the
    * transformation was first generated at, which keeps ties as a stable
    * sort over generation order would). `render` is computed at most once,
    * and only when the numeric keys tie.
    */
  private[repro] final class Ranked(val t: Transformation, val count: Int, val order: Long) {
    val placeholders: Int     = t.placeholderCount
    lazy val rendered: String = t.render
  }

  private[repro] val rankOrder: java.util.Comparator[Ranked] = (a, b) =>
    if (a.count != b.count) Integer.compare(b.count, a.count)
    else if (a.placeholders != b.placeholders) Integer.compare(a.placeholders, b.placeholders)
    else {
      val c = a.rendered.compareTo(b.rendered)
      if (c != 0) c else java.lang.Long.compare(a.order, b.order)
    }

  /** The first `k` of `rs` in rank order. */
  private[repro] def best(rs: Iterator[Ranked], k: Int): Vector[Ranked] = {
    val arr = rs.toArray
    java.util.Arrays.sort(arr, rankOrder)
    arr.iterator.take(k).toVector
  }

  /** Shared tail of the local and distributed paths. `ranked` holds every
    * non-constant transformation with coverage count >= 1, in generation
    * order (ties in the ranking go to the earlier one): shortlist by count,
    * recompute exact covered-row sets for the shortlist, pick the top
    * transformation and the greedy cover.
    */
  private[repro] def finish(
      nRows: Int,
      ranked: Vector[(Transformation, Int)],
      cacheStats: Coverage.CacheStats,
      rows: Array[Coverage.RowState],
      stats: PruningStats,
      cfg: DiscoveryConfig,
      t0: Long,
  ): DiscoveryResult = {
    val supportFloor =
      math.max(cfg.minSupportRows, math.ceil(cfg.supportThreshold * nRows).toInt)
    val keyed = ranked.iterator.zipWithIndex.map { case ((t, c), i) => new Ranked(t, c, i.toLong) }.toArray
    // The single best transformation is reported even when it falls below the
    // cover-set support floor (it is still the max-coverage answer).
    val top = keyed
      .reduceOption((a, b) => if (rankOrder.compare(b, a) < 0) b else a)
      .map(b => (b.t, b.count))
    val shortlistTs =
      best(keyed.iterator.filter(_.count >= supportFloor), cfg.shortlistSize).map(_.t)
    val shortlist = Coverage.coveredRows(shortlistTs, rows)
    val cover     = CoverSet.greedy(shortlist, nRows, supportFloor)
    DiscoveryResult(
      nRows = nRows,
      top = top,
      coverSet = cover,
      stats = stats,
      elapsedMs = (System.nanoTime() - t0) / 1000000L,
    )
  }
}
