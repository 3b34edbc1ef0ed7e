"""Build file of the benchmark: compiles the program (src/main/scala) and the
benchmark harness (perfbench/src) into one class directory with the Scala
compiler that ships with Spark, so no dependency resolution is needed.

    python3 perfbench/build.py            # from the repository root

The output goes to .bench_build/perfbench/classes; the build is skipped when
a stamp over every source file's path, size and content matches.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BUILD_DIR = Path(".bench_build") / "perfbench"
CLASSES = BUILD_DIR / "classes"
STAMP = BUILD_DIR / "stamp"
SOURCE_ROOTS = [Path("src") / "main" / "scala", Path("perfbench") / "src"]


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            raise SystemExit("build: SPARK_HOME is unset and spark-submit is not on PATH")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not jars.is_dir():
        raise SystemExit(f"build: no Spark jars under {home}")
    return Path(home)


def java_bin():
    home = os.environ.get("JAVA_HOME")
    if home and (Path(home) / "bin" / "java").exists():
        return str(Path(home) / "bin" / "java")
    found = shutil.which("java")
    if not found:
        raise SystemExit("build: no java on PATH")
    return found


def classpath(extra=None):
    parts = [str((spark_home() / "jars").resolve() / "*")]
    if extra:
        parts.insert(0, str(extra))
    return os.pathsep.join(parts)


def sources():
    for root in SOURCE_ROOTS:
        if not root.is_dir():
            raise SystemExit(f"build: missing source directory {root}")
    files = sorted(p for root in SOURCE_ROOTS for p in root.rglob("*.scala"))
    if not any(str(p).startswith(str(SOURCE_ROOTS[0])) for p in files):
        raise SystemExit("build: no program sources found")
    return files


def stamp(files):
    h = hashlib.sha256()
    for p in files:
        h.update(str(p).encode())
        h.update(p.read_bytes())
    h.update(classpath().encode())
    return h.hexdigest()


def build():
    """Compiles when needed; returns the run-time class path."""
    files = sources()
    want = stamp(files)
    if STAMP.exists() and STAMP.read_text() == want and CLASSES.is_dir():
        return classpath(CLASSES.resolve())
    if CLASSES.exists():
        shutil.rmtree(CLASSES)
    CLASSES.mkdir(parents=True)
    cmd = [
        java_bin(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", classpath(), "scala.tools.nsc.Main",
        "-nowarn", "-d", str(CLASSES), "-classpath", classpath(),
    ] + [str(p) for p in files]
    print(f"build: compiling {len(files)} Scala sources", file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    STAMP.write_text(want)
    return classpath(CLASSES.resolve())


if __name__ == "__main__":
    build()
