package repro.perfbench

import repro.core._
import repro.core.Discovery.{DiscoveryConfig, DiscoveryResult, PruningStats}
import repro.data.JoinDataset
import repro.experiments.Experiments

/** What one request produced: the output the checks look at, and its wall
  * time in seconds.
  */
final case class Done[O](out: O, wallS: Double)

/** One benchmark workload. A pass runs every request kind once, in order; the
  * run repeats passes in a closed loop (one client, one request at a time)
  * until its time is up.
  */
trait Workload {
  type Out

  /** Request kinds of one pass, by name. */
  def kinds: Vector[String]

  /** Untimed requests before measurement, cycling through the kinds. */
  def warmups: Int

  /** Generates the inputs from the seed and builds and caches DataFrames. */
  def setup(): Unit

  /** Request `k` through the program's entry points, untraced. */
  def request(k: Int): Done[Out]

  /** Checks of an entry-point output; each returned string is one failure. */
  def check(k: Int, d: Done[Out]): Seq[String]

  /** The same request rebuilt from the layer calls in the entry point's
    * order, with a span around each. The second element computes counters
    * after timing has stopped.
    */
  def traced(k: Int): (Out, () => Map[String, Double])

  /** Checks that need what only the traced composition exposes. */
  def tracedErrors(k: Int, out: Out): Seq[String] = Nil

  /** Whether a traced output equals the entry point's. */
  def same(a: Out, b: Out): Boolean

  /** End-to-end quality metrics (fractions) over the outputs seen so far. */
  def quality: Map[String, Double]
}

object Workload {
  def seconds[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** What two discovery results must agree on: the top transformation with
    * its count, and the cover set with its covered rows.
    */
  def discoveryKey(r: DiscoveryResult): (Option[(Transformation, Int)], Vector[(Transformation, Vector[Int], Int)]) =
    (r.top, r.coverSet.map(c => (c.t, c.covered.toVector, c.marginalGain)))

  /** Cover-set self-consistency: every `Chosen.covered` is the exact set of
    * input rows its transformation covers, and `setCoverage` is their union.
    */
  def coverErrors(label: String, pairs: Seq[(String, String)], r: DiscoveryResult): Seq[String] = {
    val union = new java.util.BitSet(pairs.size)
    val bad = r.coverSet.flatMap { c =>
      val recount = pairs.indices.filter { i => c.t.covers(pairs(i)._1, pairs(i)._2) }
      recount.foreach(union.set)
      if (recount == c.covered.toSeq) None
      else Some(s"$label: ${c.t.render} covers ${recount.size} rows, reported ${c.covered.length}")
    }
    val expected = union.cardinality.toDouble / math.max(1, pairs.size)
    if (r.setCoverage == expected) bad
    else bad :+ s"$label: setCoverage ${r.setCoverage} != union $expected"
  }

  /** Gold coverage (top, set) of a discovery result's cover set, or of its
    * top transformation when the cover set is empty, as the Table 2 harness
    * scores it.
    */
  def goldCoverage(ds: JoinDataset, r: DiscoveryResult): (Double, Double) =
    Experiments.goldCoverage(
      ds, if (r.transformations.nonEmpty) r.transformations else r.top.map(_._1).toVector)

  /** A transformation with adjacent literal units merged into one; two
    * transformations with equal forms always produce the same output.
    */
  def canonical(t: Transformation): Vector[TransformationUnit] =
    t.units.foldLeft(Vector.empty[TransformationUnit]) {
      case (init :+ Literal(a), Literal(b)) => init :+ Literal(a + b)
      case (acc, u)                        => acc :+ u
    }

  /** [[Discovery.discover]] rebuilt from its stage calls, in its order
    * (generation, coverage, finish), with a span around each stage.
    */
  def tracedDiscovery(pairs: Seq[(String, String)], cfg: DiscoveryConfig): (DiscoveryResult, () => Map[String, Double]) = {
    val t0 = System.nanoTime()
    val (distinct, genStats) = Tracer.span("gen")(TransformationGen.forPairs(pairs, cfg.gen))
    val (rows, counts, cacheStats) = Tracer.span("coverage") {
      val rows        = Coverage.rowStates(pairs)
      val (c, stats)  = Coverage.counts(distinct, rows)
      (rows, c, stats)
    }
    val (ranked, result) = Tracer.span("finish") {
      val ranked = counts.indices.iterator
        .filter(i => counts(i) >= 1 && !distinct(i).isConstant)
        .map(i => (distinct(i), counts(i)))
        .toVector
      val stats = PruningStats(genStats.generated, distinct.size.toLong, cacheStats.hits, cacheStats.misses)
      (ranked, Discovery.finish(pairs.size, ranked, cacheStats, rows, stats, cfg, t0))
    }
    val counters = () => {
      val floor = math.max(cfg.minSupportRows, math.ceil(cfg.supportThreshold * pairs.size).toInt)
      Map(
        "gen.generated"         -> genStats.generated.toDouble,
        "gen.truncated"         -> genStats.truncated.toDouble,
        "gen.distinct"          -> distinct.size.toDouble,
        "gen.canonical"         -> distinct.iterator.map(canonical).toSet.size.toDouble,
        "coverage.applications" -> (cacheStats.hits + cacheStats.misses).toDouble,
        "coverage.verified"     -> cacheStats.misses.toDouble,
        "coverage.useful"       -> counts.count(_ >= floor).toDouble,
        "finish.ranked"         -> ranked.size.toDouble,
        "finish.shortlist"      -> math.min(cfg.shortlistSize, ranked.count(_._2 >= floor)).toDouble,
        "cover.size"            -> result.coverSet.size.toDouble,
      )
    }
    (result, counters)
  }
}
