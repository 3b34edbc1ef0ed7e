package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Runs one workload in this JVM and prints the result as the last line:
  * {"correct", "attempted", "failed", "metrics"}.
  *
  * Arguments: workload seed seconds trace cores launch-epoch-ns out-dir.
  * The launcher (perfbench/run.py) fixes the heap and passes the launch time,
  * so set-up time includes the JVM's own start.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val Array(workload, seedArg, secondsArg, traceArg, coresArg, launchArg, outDir) = args
    val seed    = seedArg.toLong
    val seconds = secondsArg.toDouble
    val trace   = traceArg == "1"
    val cores   = coresArg.toInt
    val launch  = launchArg.toLong
    Files.createDirectories(Paths.get(outDir))

    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-$workload")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.serializer", "org.apache.spark.serializer.KryoSerializer")
      .config("spark.local.dir", Paths.get(outDir, "spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", Paths.get(outDir, "warehouse").toAbsolutePath.toString)
      .getOrCreate()
    val tSession0 = epochNs()
    try {
      val w: Workload = workload match {
        case "synth-golden" => new SynthGolden(spark, seed)
        case "web-join"     => new WebJoin(spark, seed)
        case other          => throw new IllegalArgumentException(s"unknown workload $other")
      }
      val (_, tSetup) = Workload.seconds(w.setup())
      Console.err.println(f"perfbench: setup: JVM and session ${(tSession0 - launch) / 1e9}%.2f s, inputs $tSetup%.2f s")
      println(envLine(spark, workload, seed, seconds, trace, cores))
      println(run(w, spark, seconds, trace, cores, launch, workload, seed, outDir))
    } finally spark.stop()
  }

  private def epochNs(): Long = {
    val now = java.time.Instant.now()
    now.getEpochSecond * 1000000000L + now.getNano
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0 else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Per request kind the median over the run, summed over kinds: the time
    * (or count) of one pass over the workload's requests.
    */
  private def perPass(samples: Vector[mutable.ArrayBuffer[Map[String, Double]]]): Map[String, Double] = {
    val keys = samples.flatMap(_.flatMap(_.keys)).distinct
    keys.map(key => key -> samples.map(s => median(s.map(_.getOrElse(key, 0.0)).toSeq)).sum).toMap
  }

  private def heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)

  private def run(
      w: Workload, spark: SparkSession, seconds: Double, trace: Boolean, cores: Int, launch: Long,
      workload: String, seed: Long, outDir: String,
  ): String = {
    val kinds    = w.kinds
    val walls    = kinds.map(_ => mutable.ArrayBuffer.empty[Double])
    val layers   = kinds.map(_ => mutable.ArrayBuffer.empty[Map[String, Double]])
    val failures = mutable.ArrayBuffer.empty[String]
    var attempted = 0
    var failed    = 0

    /** One request with its checks; `timed` keeps its measurements. */
    def attempt(k: Int, timed: Boolean): Unit = {
      attempted += 1
      val errors = mutable.ArrayBuffer.empty[String]
      try {
        val done = w.request(k)
        errors ++= w.check(k, done)
        if (!trace) {
          if (timed) walls(k) += done.wallS
        } else {
          val id = attempted
          val ((out, counters), tracedS) =
            Workload.seconds(Tracer.request(id)(Tracer.span("request")(w.traced(k))))
          if (!w.same(done.out, out)) errors += s"${kinds(k)}: traced composition differs from the entry point"
          errors ++= w.tracedErrors(k, out)
          if (timed) {
            Tracer.drain()
            layers(k) += Tracer.layerTotals(id) ++ counters() ++
              Map("trace.wall_s" -> tracedS, "trace.untraced_wall_s" -> done.wallS)
          }
        }
      } catch {
        case e: Exception => errors += s"${kinds(k)}: ${e.getClass.getSimpleName}: ${e.getMessage}"
      }
      if (errors.nonEmpty) { failed += 1; failures ++= errors }
    }

    // Untimed warm-up: the first requests of a JVM run 20-40 % slower while
    // the JIT compiles, so they are set-up, not measurement.
    val (_, tWarm) = Workload.seconds((0 until w.warmups).foreach(i => attempt(i % kinds.size, timed = false)))
    Console.err.println(f"perfbench: setup: warm-up ${w.warmups} requests $tWarm%.2f s")
    if (trace) Tracer.enable(spark.sparkContext)
    val setupS = (epochNs() - launch) / 1e9
    heapPools.foreach(_.resetPeakUsage())

    val start    = System.nanoTime()
    def timeLeft = (System.nanoTime() - start) / 1e9 < seconds
    var pass     = 0
    while (pass == 0 || timeLeft) {
      for (k <- kinds.indices if pass == 0 || timeLeft) attempt(k, timed = true)
      pass += 1
    }
    val peakMb = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
    failures.take(20).foreach(f => Console.err.println(s"perfbench: check failed: $f"))
    for (k <- kinds.indices)
      Console.err.println(f"perfbench: ${kinds(k)}%-24s wall_s ${median(walls(k).toSeq)}%.4f " +
        walls(k).map(v => f"$v%.3f").mkString("[", " ", "]"))

    val metrics: Seq[(String, Double, String)] =
      if (!trace) {
        val q = w.quality
        Seq(
          ("setup_s", setupS, "s"),
          ("wall_s", walls.map(ws => median(ws.toSeq)).sum, "s"),
          ("set_coverage", q("set_coverage"), "fraction"),
          ("top_coverage", q("top_coverage"), "fraction"),
          ("join_recall", q("join_recall"), "fraction"),
          ("join_precision", q("join_precision"), "fraction"),
          ("ok_frac", 1.0 - failed.toDouble / attempted, "fraction"),
          ("peak_heap_mb", peakMb, "MiB"),
        )
      } else {
        writeSpans(outDir, workload, seed)
        Layers.metrics(perPass(layers), cores)
      }
    val body = metrics.map { case (n, v, u) => s""""$n": {"value": ${fmt(v)}, "unit": "$u"}""" }.mkString(", ")
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$body}}"""
  }

  private def fmt(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else java.math.BigDecimal.valueOf(v).toPlainString

  private def writeSpans(outDir: String, workload: String, seed: Long): Unit =
    Files.write(Paths.get(outDir, s"spans-$workload-seed$seed.jsonl"), Tracer.spanLines.toSeq.asJava)

  /** Settings that make a result comparable, printed before the result. */
  private def envLine(spark: SparkSession, workload: String, seed: Long, seconds: Double, trace: Boolean, cores: Int): String = {
    val rt   = Runtime.getRuntime
    val conf = spark.conf.getAll.toSeq.sortBy(_._1)
      .filter { case (k, _) => k.startsWith("spark.sql.shuffle") || k == "spark.master" || k == "spark.serializer" }
      .map { case (k, v) => s""""$k": "$v"""" }.mkString(", ")
    s"""perfbench-env {"workload": "$workload", "seed": $seed, "seconds": $seconds, "trace": $trace, """ +
      s""""cores": $cores, "heap_max_mb": ${rt.maxMemory / 1048576}, "java": "${System.getProperty("java.version")}", """ +
      s""""spark": "${spark.version}", "spark_conf": {$conf}}"""
  }
}

/** The per-layer metrics of the traced run, from per-pass span totals. */
object Layers {
  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  def metrics(t: Map[String, Double], cores: Int): Seq[(String, Double, String)] = {
    def v(k: String) = t.getOrElse(k, 0.0)
    Seq(
      ("matching.busy_s", v("matching.busy_s"), "s"),
      ("matching.pairs", v("matching.pairs"), "count"),
      ("matching.precision", ratio(v("matching.tp"), v("matching.pairs")), "fraction"),
      ("matching.recall", ratio(v("matching.tp"), v("matching.gold")), "fraction"),
      ("spark_match.busy_s", v("spark_match.busy_s"), "s"),
      ("spark_match.pairs", v("spark_match.pairs"), "count"),
      ("spark_match.precision", ratio(v("spark_match.tp"), v("spark_match.pairs")), "fraction"),
      ("spark_match.tasks", v("spark_match.tasks"), "count"),
      ("spark_match.shuffle_mb", v("spark_match.shuffle_mb"), "MiB"),
      ("sample.busy_s", v("sample.busy_s"), "s"),
      ("gen.busy_s", v("gen.busy_s"), "s"),
      ("gen.generated", v("gen.generated"), "count"),
      ("gen.truncated", v("gen.truncated"), "count"),
      ("gen.distinct", v("gen.distinct"), "count"),
      ("gen.distinct_ratio", ratio(v("gen.distinct"), v("gen.generated")), "fraction"),
      ("gen.canonical_ratio", ratio(v("gen.canonical"), v("gen.distinct")), "fraction"),
      ("coverage.busy_s", v("coverage.busy_s"), "s"),
      ("coverage.applications", v("coverage.applications"), "count"),
      ("coverage.verified", v("coverage.verified"), "count"),
      ("coverage.skip_ratio", ratio(v("coverage.applications") - v("coverage.verified"), v("coverage.applications")), "fraction"),
      ("coverage.useful_ratio", ratio(v("coverage.useful"), v("gen.distinct")), "fraction"),
      ("finish.busy_s", v("finish.busy_s"), "s"),
      ("finish.ranked", v("finish.ranked"), "count"),
      ("finish.shortlist", v("finish.shortlist"), "count"),
      ("cover.size", v("cover.size"), "count"),
      ("spark_discovery.busy_s", v("spark_discovery.busy_s"), "s"),
      ("spark_discovery.executor_run_s", v("spark_discovery.executor_run_s"), "s"),
      ("spark_discovery.parallel_eff",
        ratio(v("spark_discovery.executor_run_s"), v("spark_discovery.busy_s") * cores), "fraction"),
      ("spark_discovery.shuffle_mb", v("spark_discovery.shuffle_mb"), "MiB"),
      ("spark_discovery.tasks", v("spark_discovery.tasks"), "count"),
      ("join_apply.busy_s", v("join_apply.busy_s"), "s"),
      ("join_apply.rules", v("join_apply.rules"), "count"),
      ("join_apply.rows_out", v("join_apply.rows_out"), "count"),
      ("join_apply.tasks", v("join_apply.tasks"), "count"),
      ("join_apply.shuffle_mb", v("join_apply.shuffle_mb"), "MiB"),
      ("request.busy_s", v("request.busy_s"), "s"),
      ("jvm.gc_s", v("jvm.gc_s"), "s"),
      ("jvm.gc_count", v("jvm.gc_count"), "count"),
      ("trace.wall_s", v("trace.wall_s"), "s"),
      ("trace.overhead_s", v("trace.wall_s") - v("trace.untraced_wall_s"), "s"),
    )
  }
}
