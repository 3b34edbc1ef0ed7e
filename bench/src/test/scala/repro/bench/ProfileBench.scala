package repro.bench

import repro.SparkSpec
import repro.data.{OpenDataSim, SynthJoin}
import repro.experiments.Experiments
import repro.experiments.Experiments.{GoldenMatching, NGramMatching, Scale}

/** Calibration profile, not a check: times the costliest discovery cells
  * (Synth-500L golden, Open data under n-gram and golden matching) and prints
  * their pruning counters and coverages. Run with
  * `sbt "bench/testOnly repro.bench.ProfileBench"`.
  */
class ProfileBench extends SparkSpec {
  val scale = Scale(runAutoJoin = false)
  def time[A](tag: String)(f: => A): A = {
    val t0 = System.nanoTime(); val r = f
    println(f"[t] $tag: ${(System.nanoTime()-t0)/1e9}%.1f s"); r
  }
  test("calib2") {
    spark
    val s500L = SynthJoin.synthL(500, seed = 1001L)
    val r1 = time("Synth-500L golden") { Experiments.runDataset(spark, s500L, GoldenMatching, scale) }
    println(s"  gen=${r1.pruning.generated} toTry=${r1.pruning.toTry} dup=${r1.pruning.duplicateRatio} hit=${r1.pruning.cacheHitRatio} cov=${r1.ours.setCov} top=${r1.ours.topCov} nT=${r1.ours.nTrans} t=${r1.ours.timeSec}")
    val open = OpenDataSim.generate(scale.openRows)
    val r3 = time("Open ngram") { Experiments.runDataset(spark, open, NGramMatching, scale, supportThreshold = 0.01, sampleCap = scale.openSamplePairs) }
    println(s"  gen=${r3.pruning.generated} toTry=${r3.pruning.toTry} pairs=${r3.nInputPairs} P=${r3.prf.precision} R=${r3.prf.recall} cov=${r3.ours.setCov} top=${r3.ours.topCov} nT=${r3.ours.nTrans} t=${r3.ours.timeSec}")
    val r4 = time("Open golden") { Experiments.runDataset(spark, open, GoldenMatching, scale, supportThreshold = 0.01, sampleCap = scale.openSamplePairs) }
    println(s"  cov=${r4.ours.setCov} top=${r4.ours.topCov} nT=${r4.ours.nTrans} t=${r4.ours.timeSec}")
  }
}
