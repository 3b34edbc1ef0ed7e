package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, lit, rand}
import repro.core.Transformation
import repro.core.Discovery.{DiscoveryConfig, DiscoveryResult}
import repro.core.TransformationGen.GenConfig
import repro.data.{JoinDataset, WebBenchSim}
import repro.sparkjoin.{SparkRowMatcher, TransformJoin}
import repro.sparkjoin.TransformJoin.TransformJoinConfig
import Workload.seconds

/** `web-join`: the end-to-end join on simulated web-benchmark tables. Each
  * request is `TransformJoin.join` on one table pair plus a collect of the
  * joined (src_id, tgt_id).
  *
  * Why: the product path on the paper's benchmark tables. Some tables are
  * dominated by fixed Spark cost (matcher, sampling, union join), others by
  * discovery on noisy n-gram pairs, where ranking and cover cost more than
  * coverage.
  */
final class WebJoin(spark: SparkSession, seed: Long) extends Workload {
  import WebJoin._

  /** `sample` is the discovery input, known only to the traced composition. */
  final case class Out(disc: DiscoveryResult, matched: Long, joined: Set[(Long, Long)], sample: Vector[(String, String)] = Vector.empty)

  private var tables: Vector[JoinDataset]            = Vector.empty
  private var frames: Vector[(DataFrame, DataFrame)] = Vector.empty
  private val seen    = scala.collection.mutable.Map.empty[Int, Out]

  def kinds: Vector[String] = tables.map(_.name)
  def warmups: Int          = Tables.size

  def setup(): Unit = {
    tables = Tables.map(n => WebBenchSim.dataset(WebBenchSim.specs.find(_.name == n).get, seed))
    frames = tables.map(ds => (ds.sourceDf(spark).cache(), ds.targetDf(spark).cache()))
    frames.flatMap { case (s, t) => Seq(s, t.toDF("src_id", "src_val")) }.reduce(_ union _).count()
  }

  private def pairsOf(rows: Array[org.apache.spark.sql.Row]): Set[(Long, Long)] =
    rows.iterator.map(r => (r.getLong(0), r.getLong(1))).toSet

  def request(k: Int): Done[Out] = {
    val (src, tgt) = frames(k)
    val ((res, joined), t) = seconds {
      val res = TransformJoin.join(spark, src, tgt, Config)
      (res, pairsOf(res.joined.select("src_id", "tgt_id").collect()))
    }
    Done(Out(res.discovery, res.matchedPairs, joined), t)
  }

  /** The matcher and sampling steps of `TransformJoin.join`, as it runs them. */
  private def matchAndSample(src: DataFrame, tgt: DataFrame): (DataFrame, Long, Vector[(String, String)]) = {
    val (pairsDf, n) = Tracer.span("spark_match") {
      val p = SparkRowMatcher.matchPairs(src, tgt, cfg = Config.matching).cache()
      (p, p.count())
    }
    val sampled = Tracer.span("sample") {
      pairsDf
        .join(src, "src_id")
        .join(tgt, "tgt_id")
        .select(col("src_val"), col("tgt_val"))
        .orderBy(rand(Config.sampleSeed))
        .limit(Config.samplePairs)
        .collect()
        .map(r => (r.getString(0), r.getString(1)))
        .toVector
    }
    (pairsDf, n, sampled)
  }

  /** The join a driver-side hash join of the same rules gives, each rule
    * applied with `Transformation.apply`.
    */
  private def expectedJoin(ds: JoinDataset, ts: Seq[Transformation]): Set[(Long, Long)] = {
    val byValue = ds.target.indices.groupBy(ds.target(_))
    val keys: Seq[(Int, String)] =
      if (ts.isEmpty) ds.source.indices.map(i => (i, ds.source(i)))
      else for (t <- ts; i <- ds.source.indices; key <- t(ds.source(i))) yield (i, key)
    keys.flatMap { case (i, key) => byValue.getOrElse(key, Nil).map(j => (i.toLong, j.toLong)) }.toSet
  }

  def check(k: Int, d: Done[Out]): Seq[String] = {
    seen.getOrElseUpdate(k, d.out)
    val ds = tables(k)
    Option.when(expectedJoin(ds, d.out.disc.transformations) != d.out.joined)(
      s"${ds.name}: joined pairs differ from the driver-side hash join").toSeq
  }

  override def tracedErrors(k: Int, out: Out): Seq[String] =
    Workload.coverErrors(tables(k).name, out.sample, out.disc)

  def traced(k: Int): (Out, () => Map[String, Double]) = {
    val ds                   = tables(k)
    val src                  = frames(k)._1.cache()
    val tgt                  = frames(k)._2.cache()
    val (pairsDf, n, smp)    = matchAndSample(src, tgt)
    val (disc, counters)     = Workload.tracedDiscovery(smp, Config.discovery)
    val ts                   = disc.transformations
    val joined = Tracer.span("join_apply") {
      val keyed =
        if (ts.isEmpty) src.withColumn("rule", lit(-1)).withColumn("join_key", col("src_val"))
        else TransformJoin.transformed(src, "src_val", ts)
      pairsOf(keyed.join(tgt, col("join_key") === col("tgt_val")).select("src_id", "tgt_id").collect())
    }
    val extra = () => {
      val matched = pairsOf(pairsDf.collect())
      pairsDf.unpersist(blocking = false)
      counters() ++ Map(
        "spark_match.pairs" -> n.toDouble,
        "spark_match.tp"    -> matched.count { case (i, j) => ds.goldPairs((i.toInt, j.toInt)) }.toDouble,
        "join_apply.rules"  -> ts.size.toDouble,
        "join_apply.rows_out" -> joined.size.toDouble,
      )
    }
    (Out(disc, n, joined, smp), extra)
  }

  def same(a: Out, b: Out): Boolean =
    Workload.discoveryKey(a.disc) == Workload.discoveryKey(b.disc) && a.matched == b.matched && a.joined == b.joined

  def quality: Map[String, Double] = {
    val outs = seen.toVector.sortBy(_._1)
    val cov  = outs.map { case (k, o) => Workload.goldCoverage(tables(k), o.disc) }
    val hits = outs.map { case (k, o) => tables(k).goldPairs.count { case (i, j) => o.joined((i.toLong, j.toLong)) } }.sum
    Map(
      "top_coverage"   -> cov.map(_._1).sum / math.max(1, cov.size),
      "set_coverage"   -> cov.map(_._2).sum / math.max(1, cov.size),
      "join_recall"    -> hits.toDouble / math.max(1, outs.map(o => tables(o._1).goldPairs.size).sum),
      "join_precision" -> hits.toDouble / math.max(1, outs.map(_._2.joined.size).sum),
    )
  }
}

object WebJoin {
  /** Tables of the simulated web benchmark. Names, phones and domains give
    * noisy n-gram samples where discovery dominates; dates, city/region,
    * courses, ISBNs and prices are dominated by the fixed Spark cost of a
    * join. Eight tables per pass average out how much one seed's noisy
    * samples cost.
    */
  val Tables: Vector[String] = Vector(
    "web03-authors", "web07-phones", "web09-founding-dates", "web11-city-region",
    "web15-courses", "web17-domains", "web19-isbn", "web25-prices",
  )

  /** `supportThreshold` as in the join's own tests. `samplePairs` caps the
    * pairs discovery learns from, as the paper samples Open data: on noisy
    * tables discovery grows with the sample squared, and the full matched
    * sets (80-180 pairs) take 1-40 s per table. The generation caps are the
    * ones the Table 2 harness uses for noisy sampled pairs: without them a
    * false pair can emit 50 000 candidates, so the cost of a table swings
    * threefold with how many false pairs its sample drew.
    */
  val Config: TransformJoinConfig = TransformJoinConfig(
    discovery = DiscoveryConfig(
      gen = GenConfig(maxCandidatesPerPlaceholder = 16, maxTransPerRow = 4000),
      supportThreshold = 0.05,
    ),
    samplePairs = 20,
  )
}
