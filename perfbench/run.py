"""Benchmark launcher.

    python3 perfbench/run.py --workload synth-golden --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the program and the benchmark harness
(perfbench/build.py) if needed, then runs the workload in a fresh JVM with a
fixed heap on local[nproc], and prints the harness's result as the last line
of standard output. Logs, spans and results go to .bench_build/perfbench.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ("synth-golden", "web-join")
HEAP = "4g"
RUN_TIMEOUT_S = 170
# Spark on JDK 17 reaches into JDK internals; these are the module opens
# spark-submit adds.
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar", "java.time",
]


def git_hash():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    try:
        cp = build.build()
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed (exit {e.returncode})", file=sys.stderr)
        return 1
    out_dir = (build.BUILD_DIR / "out").resolve()
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cores = len(os.sched_getaffinity(0))
    name = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    cmd = (
        [build.java_bin(), f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+IgnoreUnrecognizedVMOptions", "-XX:-UsePerfData"]
        + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
        + [f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j.configurationFile={Path('perfbench/log4j2.properties').resolve()}",
           "-cp", cp, "repro.perfbench.Main",
           a.workload, str(a.seed), str(a.seconds), str(a.trace), str(cores),
           str(time.time_ns()), str(out_dir)]
    )
    with open(out_dir / f"{name}.log", "w") as log:
        env = dict(os.environ, SPARK_LOCAL_DIRS=str(out_dir / "spark-local"))
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True, env=env)

        def stop(signum, _frame):
            proc.kill()
            proc.wait()
            sys.exit(128 + signum)

        signal.signal(signal.SIGTERM, stop)
        signal.signal(signal.SIGINT, stop)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: {name} timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
    lines = [l for l in stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {name} failed (exit {proc.returncode}), see {log.name}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    env = lines[-2] if len(lines) > 1 and lines[-2].startswith("perfbench-env ") else "perfbench-env {}"
    env = dict(json.loads(env.split(" ", 1)[1]), git=git_hash(), source_digest=build.STAMP.read_text(), heap=HEAP)
    record = {"env": env, "result": result}
    with open(out_dir / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print("perfbench-env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
