package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.Discovery
import repro.core.Discovery.{DiscoveryConfig, DiscoveryResult}
import repro.data.{JoinDataset, SynthJoin}
import repro.matching.RowMatcher
import repro.sparkjoin.SparkDiscovery
import Workload.seconds

/** `synth-golden`: the paper's synthetic tables with their gold pairs. Each
  * request is one table: the n-gram matcher (Table 1), then local and Spark
  * discovery on the gold pairs.
  *
  * Why: clean example pairs, where coverage does most of the discovery work
  * and no join runs; the only workload that times the Spark discovery path
  * (which the Table 2 harness uses from 100 pairs on) against the local one.
  */
final class SynthGolden(spark: SparkSession, seed: Long) extends Workload {
  import SynthGolden._

  final case class Out(predicted: Set[(Int, Int)], local: DiscoveryResult, distributed: DiscoveryResult)

  private val cfg = DiscoveryConfig()
  private var tables: Vector[JoinDataset]           = Vector.empty
  private var pairs: Vector[Vector[(String, String)]] = Vector.empty
  private val seen = scala.collection.mutable.Map.empty[Int, Out]

  def kinds: Vector[String] = tables.indices.toVector.map(k => s"${tables(k).name}#$k")
  def warmups: Int          = 4

  def setup(): Unit = {
    tables = (0 until TablesPerShape).toVector.flatMap { j =>
      val s = seed * TablesPerShape + j
      Vector(SynthJoin.synth(Rows, seed = s), SynthJoin.synthL(Rows, seed = 1000L + s))
    }
    pairs = tables.map(_.goldPairStrings)
  }

  def request(k: Int): Done[Out] = {
    val ds = tables(k)
    val (out, t) = seconds(Out(
      RowMatcher.matchPairs(ds.source, ds.target),
      Discovery.discover(pairs(k), cfg),
      SparkDiscovery.discover(spark, pairs(k), cfg),
    ))
    Done(out, t)
  }

  def check(k: Int, d: Done[Out]): Seq[String] = {
    seen.getOrElseUpdate(k, d.out)
    val name   = kinds(k)
    val parity =
      if (Workload.discoveryKey(d.out.local) == Workload.discoveryKey(d.out.distributed)) Nil
      else Seq(s"$name: local and Spark discovery differ")
    parity ++
      Workload.coverErrors(s"$name local", pairs(k), d.out.local) ++
      Workload.coverErrors(s"$name spark", pairs(k), d.out.distributed)
  }

  def traced(k: Int): (Out, () => Map[String, Double]) = {
    val ds        = tables(k)
    val predicted = Tracer.span("matching")(RowMatcher.matchPairs(ds.source, ds.target))
    val (local, counters) = Workload.tracedDiscovery(pairs(k), cfg)
    val dist = Tracer.span("spark_discovery")(SparkDiscovery.discover(spark, pairs(k), cfg))
    val extra = () => {
      counters() ++ Map(
        "matching.pairs" -> predicted.size.toDouble,
        "matching.tp"    -> predicted.count(ds.goldPairs.contains).toDouble,
        "matching.gold"  -> ds.goldPairs.size.toDouble,
      )
    }
    (Out(predicted, local, dist), extra)
  }

  def same(a: Out, b: Out): Boolean =
    a.predicted == b.predicted &&
      Workload.discoveryKey(a.local) == Workload.discoveryKey(b.local) &&
      Workload.discoveryKey(a.distributed) == Workload.discoveryKey(b.distributed)

  def quality: Map[String, Double] = {
    val outs = seen.toVector.sortBy(_._1)
    val cov  = outs.map { case (k, o) => Workload.goldCoverage(tables(k), o.local) }
    val tp        = outs.map { case (k, o) => o.predicted.count(tables(k).goldPairs.contains) }.sum.toDouble
    val gold      = outs.map { case (k, _) => tables(k).goldPairs.size }.sum
    val predicted = outs.map(_._2.predicted.size).sum
    Map(
      "top_coverage"   -> cov.map(_._1).sum / math.max(1, cov.size),
      "set_coverage"   -> cov.map(_._2).sum / math.max(1, cov.size),
      "join_recall"    -> tp / math.max(1, gold),
      "join_precision" -> tp / math.max(1, predicted),
    )
  }
}

object SynthGolden {
  /** Rows per table. The paper's Synth-500 costs 8-20 s of discovery per
    * table, which leaves no room for many tables in a short run; discovery
    * cost grows with rows squared.
    */
  val Rows = 80

  /** Tables of each shape (Synth-N, Synth-NL) per run. The cost of a table
    * depends on its randomly drawn gold rules, so a run averages over many.
    */
  val TablesPerShape = 8
}
