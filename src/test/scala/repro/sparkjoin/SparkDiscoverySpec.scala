package repro.sparkjoin

import repro.SparkSpec
import repro.core.Discovery
import repro.core.Discovery.DiscoveryConfig
import repro.data.SynthJoin

/** Parity of the Spark-parallelized discovery with the local algorithm. */
class SparkDiscoverySpec extends SparkSpec {

  private val pairs = Vector(
    ("rafiei, davood", "d rafiei"),
    ("bowling, michael", "m bowling"),
    ("gosgnach, simon", "s gosgnach"),
    ("walker, james", "j walker"),
    ("nascimento, mario", "mario"),
    ("gingrich, douglas", "douglas"),
  )

  test("top transformation and coverage match the local path") {
    val local = Discovery.discover(pairs)
    val dist  = SparkDiscovery.discover(spark, pairs)
    assert(dist.top.map(_._1) == local.top.map(_._1))
    assert(dist.top.map(_._2) == local.top.map(_._2))
    assert(dist.topCoverage == local.topCoverage)
  }

  test("cover set matches the local path") {
    val local = Discovery.discover(pairs)
    val dist  = SparkDiscovery.discover(spark, pairs)
    assert(dist.transformations == local.transformations)
    assert(dist.setCoverage == local.setCoverage)
  }

  test("generation counters match the local path (dedup is global)") {
    val local = Discovery.discover(pairs)
    val dist  = SparkDiscovery.discover(spark, pairs)
    assert(dist.stats.generated == local.stats.generated)
    assert(dist.stats.toTry == local.stats.toTry)
  }

  test("cache pruning remains effective under partitioning") {
    val ds   = SynthJoin.synth(30, seed = 4L)
    val dist = SparkDiscovery.discover(spark, ds.goldPairStrings)
    assert(dist.stats.cacheHitRatio > 0.3, s"hitRatio=${dist.stats.cacheHitRatio}")
  }

  test("full coverage on synthetic gold pairs") {
    val ds   = SynthJoin.synth(30, seed = 4L)
    val dist = SparkDiscovery.discover(spark, ds.goldPairStrings)
    assert(dist.setCoverage == 1.0)
  }

  test("empty input") {
    val res = SparkDiscovery.discover(spark, Seq.empty)
    assert(res.nRows == 0 && res.top.isEmpty && res.coverSet.isEmpty)
  }

  // The Spark path splits the transformation space into `numSlices` hash
  // slices; every split must reproduce the local result exactly, counters
  // included.
  private val splitInputs = Vector(
    "name pairs" -> pairs,
    "Synth-30"   -> SynthJoin.synth(30, seed = 4L).goldPairStrings,
    "Synth-30L"  -> SynthJoin.synthL(30, seed = 4L).goldPairStrings,
  )
  for ((name, input) <- splitInputs) {
    test(s"partition split: $name equals the local path for 1, 3 and 8 slices") {
      val local = Discovery.discover(input)
      for (n <- Seq(1, 3, 8)) {
        val dist = SparkDiscovery.discover(spark, input, numSlices = n)
        assert(dist.top == local.top, s"slices=$n")
        assert(
          dist.coverSet.map(c => (c.t, c.covered.toSeq, c.marginalGain)) ==
            local.coverSet.map(c => (c.t, c.covered.toSeq, c.marginalGain)),
          s"slices=$n",
        )
        assert(dist.stats == local.stats, s"slices=$n")
      }
    }
  }

  test("single-slice and many-slice runs agree") {
    val a = SparkDiscovery.discover(spark, pairs, numSlices = 1)
    val b = SparkDiscovery.discover(spark, pairs, numSlices = 8)
    assert(a.transformations == b.transformations)
    assert(a.stats.generated == b.stats.generated)
    assert(a.stats.toTry == b.stats.toTry)
  }
}
