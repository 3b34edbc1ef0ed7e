package repro.core

import org.scalacheck.Gen
import repro.{PropHelper, SparkSpec}
import repro.core.TransformationGen.GenConfig
import repro.data.{SynthJoin, WebBenchSim}

/** Coverage through the unit index (paper §4.1.5). */
class CoverageSpec extends SparkSpec with PropHelper {
  import Coverage._

  private val pairs = Seq(
    ("bowling, michael", "m bowling"),
    ("rafiei, davood", "d rafiei"),
    ("gosgnach, simon", "s gosgnach"),
    ("nascimento, mario", "mario"),
  )
  private val tInitial =
    Transformation(SplitSubstr(' ', 2, 0, 1), Literal(" "), Split(',', 1))
  private val tFirst = Transformation(Split(' ', 2))

  test("counts: coverage is exact") {
    val rows = rowStates(pairs)
    val (cov, _) = counts(Vector(tInitial, tFirst), rows)
    assert(cov(0) == 3) // covers all but the "mario" row
    assert(cov(1) == 1) // only "mario"
  }

  test("a unit whose output is not in the target filters every row") {
    // Literal("zzz") is not a substring of any target: the index filters the
    // transformation on every row, and nothing is verified.
    val bad = Transformation(Literal("zzz"), Split(',', 1))
    val (cov, s) = counts(Vector(bad), rowStates(pairs))
    assert(cov(0) == 0)
    assert(s.hits == pairs.size && s.misses == 0)
  }

  test("cache never changes coverage results (consistency)") {
    val (distinct, _) = TransformationGen.forPairs(pairs)
    val indexed = counts(distinct, rowStates(pairs))._1.toVector
    val naive   = distinct.map(t => pairs.count { case (s, g) => t.covers(s, g) }).toVector
    assert(indexed == naive)
  }

  test("a good unit does not filter its row: the row is verified") {
    // Substr(0,2)="ab" is in the target but the transformation fails overall;
    // the row must reach exact verification, not be filtered.
    val (cov, s) = counts(Vector(Transformation(Substr(0, 2))), rowStates(Seq(("abcd", "ab-cd"))))
    assert(cov(0) == 0)
    assert(s == CacheStats(hits = 0, misses = 1))
  }

  test("an undefined unit filters its row") {
    val (cov, s) = counts(Vector(Transformation(Split(',', 5))), rowStates(Seq(("abcd", "ab"))))
    assert(cov(0) == 0)
    assert(s == CacheStats(hits = 1, misses = 0))
  }

  test("coveredRows returns the exact row index sets") {
    val rows = rowStates(pairs)
    val res  = coveredRows(Vector(tInitial, tFirst), rows)
    assert(res(0)._2.toSeq == Seq(0, 1, 2))
    assert(res(1)._2.toSeq == Seq(3))
  }

  test("cache stats combine additively") {
    assert(CacheStats(1, 2) + CacheStats(3, 4) == CacheStats(4, 6))
    assert(CacheStats(3, 1).hitRatio == 0.75)
    assert(CacheStats.zero.hitRatio == 0.0)
  }

  test("a covering transformation is verified and counted on its row") {
    val rows = rowStates(Seq(("bowling, michael", "m bowling")))
    val (cov, s) = counts(Vector(tInitial), rows)
    assert(cov.toSeq == Seq(1))
    assert(s == CacheStats(hits = 0, misses = 1))
    assert(coveredRows(Vector(tInitial, tInitial), rows).map(_._2.toSeq) == Vector(Seq(0), Seq(0)))
  }

  test("a transformation with zero units covers exactly the rows with an empty target") {
    val rows = rowStates(Seq(("abc", ""), ("abc", "a"), ("", ""), ("", "x")))
    val (cov, s) = counts(Vector(Transformation(Vector.empty)), rows)
    assert(cov.toSeq == Seq(2))
    assert(s == CacheStats(0, 4))
    assert(coveredRows(Vector(Transformation(Vector.empty)), rows).head._2.toSeq == Seq(0, 2))
  }

  test("more than 64 rows: bitset words past the first are exact") {
    val many = (0 until 150).map(i => (s"k$i,v$i", if (i % 3 == 0) s"v$i" else s"w$i"))
    val t    = Transformation(Split(',', 2))
    val (cov, s) = counts(Vector(t), rowStates(many))
    assert(cov(0) == 50)
    assert(s.hits + s.misses == 150)
    assert(coveredRows(Vector(t), rowStates(many)).head._2.toSeq == (0 until 150 by 3))
  }

  // ---- Differential property: the kernel equals a naive `covers` recount --

  private val synthPool = (SynthJoin.synth(12, seed = 5L).goldPairStrings ++
    SynthJoin.synthL(8, seed = 6L).goldPairStrings)
  private val webPool =
    WebBenchSim.specs.take(6).flatMap(s => WebBenchSim.dataset(s).goldPairStrings.take(8))
  private val adversarial = Vector(
    ("", ""), ("", "x"), ("abc", ""), (",,", ","), (" - ", "-"), (",", ""), ("   ", " "),
    ("😀a,b😀", "😀b"), ("a😀,b", "😀"),
    ("x😀y", "😀"), ("😀", "\ud83d"),
  )

  private val inputs: Gen[Vector[(String, String)]] = for {
    pool  <- Gen.oneOf(synthPool, webPool)
    nPool <- Gen.choose(1, 5)
    base  <- Gen.pick(nPool, pool)
    nAdv  <- Gen.choose(0, 3)
    adv   <- Gen.pick(nAdv, adversarial)
    dup   <- Gen.oneOf(true, false)
  } yield {
    val rows = base.toVector ++ adv
    if (dup) rows :+ rows.head else rows
  }

  private val genCfg = GenConfig(maxTransPerRow = 400)

  test("property: counts and coveredRows equal a naive covers recount") {
    forAllSampled(inputs, samples = 40) { rowPairs =>
      val (generated, _) = TransformationGen.forPairs(rowPairs, genCfg)
      val ts = generated ++ Vector(
        Transformation(Vector.empty),
        Transformation(Literal("")),
        Transformation(Split(',', 1), Literal(""), Split(',', 2)),
      )
      val rows  = rowStates(rowPairs)
      val naive = ts.map(t => rowPairs.indices.filter(r => t.covers(rowPairs(r)._1, rowPairs(r)._2)))
      val (cov, s) = counts(ts, rows)
      assert(cov.toVector == naive.map(_.size))
      assert(coveredRows(ts, rows).map(_._2.toSeq) == naive)
      assert(s.hits + s.misses == ts.size.toLong * rowPairs.size)
      assert(s.misses >= cov.map(_.toLong).sum)
    }
  }
}
