#!/usr/bin/env python3
"""Build file of the benchmark: compiles src/main/scala and perfbench/src with
the Scala compiler that ships in Spark's jars/ (no sbt, no network) into
.bench_build/classes-<source hash>/, and reuses that directory while the
sources are unchanged. Run from the root of a source checkout:

    python3 perfbench/build.py

prints the classes directory. perfbench/run.py calls it before every run.
"""
import glob
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def java():
    home = os.environ.get("JAVA_HOME")
    return os.path.join(home, "bin", "java") if home else "java"


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        die("SPARK_HOME must point at a Spark distribution (its jars/ holds Spark and Scala)")
    return os.path.join(home, "jars")


def sources():
    main = os.path.join(ROOT, "src", "main", "scala")
    bench = os.path.join(ROOT, "perfbench", "src")
    if not os.path.isdir(main):
        die("src/main/scala not found: run from the root of a source checkout")
    files = sorted(glob.glob(os.path.join(main, "**", "*.scala"), recursive=True))
    files += sorted(glob.glob(os.path.join(bench, "**", "*.scala"), recursive=True))
    return files


def build():
    """Compile if needed; return (classes directory, SHA-256 of the sources)."""
    files = sources()
    jars = spark_jars()
    digest = hashlib.sha256()
    for f in files:
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    source_sha = digest.hexdigest()
    out = os.path.join(BUILD, "classes-" + source_sha[:16])
    if os.path.exists(os.path.join(out, "OK")):
        return out, source_sha
    os.makedirs(out, exist_ok=True)
    compiler = [os.path.join(jars, j) for j in sorted(os.listdir(jars))
                if j.startswith(("scala-compiler-", "scala-library-", "scala-reflect-"))]
    if len(compiler) != 3:
        die("no Scala compiler in the Spark jars")
    cmd = [java(), "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "-classpath", os.path.join(jars, "*"),
           "-d", out] + files
    print(f"perfbench: compiling {len(files)} sources", file=sys.stderr)
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die("compilation failed", 1)
    open(os.path.join(out, "OK"), "w").close()
    return out, source_sha


if __name__ == "__main__":
    print(build()[0])
