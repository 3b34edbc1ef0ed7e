package repro.sparkjoin

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.core.Discovery.{DiscoveryConfig, DiscoveryResult, PruningStats, Ranked}

/** Distributed transformation discovery.
  *
  * The same algorithm as [[repro.core.Discovery.discover]], split over the
  * space of transformations in one stage with no shuffle. Task `p` of `P`
  * regenerates the candidates of every row from the broadcast pairs and keeps
  * only the transformations whose `floorMod(hashCode, P) == p`; the slices
  * are disjoint, so deduplicating within a task is global deduplication. The
  * task then counts its slice's coverage with the same unit-index kernel as
  * the local path ([[Coverage.counts]]) and returns only its top
  * `shortlistSize` by the ranking of [[Discovery.finish]], which shares the
  * shortlist/cover tail with the local path.
  *
  * The counters (generated, to try, and the unit-index hits — applications
  * filtered by the index — and misses — rows verified) flow through
  * accumulators and equal the local path's for any number of slices.
  */
object SparkDiscovery {

  def discover(
      spark: SparkSession,
      pairs: Seq[(String, String)],
      cfg: DiscoveryConfig = DiscoveryConfig(),
      numSlices: Int = 0,
  ): DiscoveryResult = {
    val t0 = System.nanoTime()
    if (pairs.isEmpty)
      return DiscoveryResult(0, None, Vector.empty, PruningStats(0, 0, 0, 0), 0)

    val sc        = spark.sparkContext
    val slices    = if (numSlices > 0) numSlices else sc.defaultParallelism
    val bcRows    = sc.broadcast(pairs.toVector)
    val genCfg    = cfg.gen
    val shortlist = math.max(1, cfg.shortlistSize)

    val generatedAcc = sc.longAccumulator("generatedTransformations")
    val toTryAcc     = sc.longAccumulator("distinctTransformations")
    val hitsAcc      = sc.longAccumulator("indexFiltered")
    val missesAcc    = sc.longAccumulator("rowsVerified")

    try {
      val tops = sc
        .parallelize(0 until slices, slices)
        .mapPartitions(_.flatMap { p =>
          val rowPairs = bcRows.value
          // Each distinct transformation of this slice, with the position it
          // was first generated at across all rows.
          val seen      = scala.collection.mutable.LinkedHashMap.empty[Transformation, Long]
          var position  = 0L
          var generated = 0L
          for ((s, t) <- rowPairs)
            TransformationGen.forRow(s, t, genCfg) { tr =>
              if (Math.floorMod(tr.hashCode, slices) == p) {
                generated += 1
                if (!seen.contains(tr)) seen.update(tr, position)
              }
              position += 1
            }
          val slice           = seen.keys.toVector
          val order           = seen.values.toArray
          val (counts, cache) = Coverage.counts(slice, Coverage.rowStates(rowPairs))
          generatedAcc.add(generated)
          toTryAcc.add(slice.size.toLong)
          hitsAcc.add(cache.hits)
          missesAcc.add(cache.misses)
          val ranked = slice.indices.iterator
            .filter(i => counts(i) >= 1 && !slice(i).isConstant)
            .map(i => new Ranked(slice(i), counts(i), order(i)))
          Discovery.best(ranked, shortlist).map(r => (r.t, r.count, r.order))
        })
        .collect()

      // Only the shortlist is needed: the global top by the same ranking,
      // handed to `finish` in rank order so its ties fall the same way as on
      // the local path.
      val ranked = Discovery
        .best(tops.iterator.map { case (t, c, o) => new Ranked(t, c, o) }, shortlist)
        .map(r => (r.t, r.count))
      Discovery.finish(
        pairs.size,
        ranked,
        Coverage.CacheStats(hitsAcc.value, missesAcc.value),
        Coverage.rowStates(pairs),
        PruningStats(generatedAcc.value, toTryAcc.value, hitsAcc.value, missesAcc.value),
        cfg,
        t0,
      )
    } finally bcRows.destroy()
  }
}
