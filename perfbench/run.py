#!/usr/bin/env python3
"""Build and run the FSimχ benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload dbis-bj --seed 0 --seconds 6 --trace 0

Builds with perfbench/build.py, then runs perfbench.Main in one JVM with a
pinned heap. The last line of standard output is the result JSON. See
perfbench/README.md.
"""
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

HEAP = "4g"
RUN_TIMEOUT_S = 175

# Spark 4 on JDK 17 needs these JDK internals opened, as in build.sbt.
MODULE_OPTIONS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "--add-exports=java.base/sun.util.calendar=ALL-UNNAMED",
    "--add-exports=java.base/sun.nio.ch=ALL-UNNAMED",
]


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=build.ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(build.ROOT):
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT,
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    classes, source_sha = build.build()
    tmp = os.path.join(build.BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # -XX:-UsePerfData: no hsperfdata file outside the checkout.
    cmd = [build.java(), "-XX:-UsePerfData", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseG1GC",
           *MODULE_OPTIONS, f"-Djava.io.tmpdir={tmp}",
           "-Dlog4j2.configurationFile=" + os.path.join(build.ROOT, "perfbench", "log4j2.properties"),
           f"-Dperfbench.gitSha={git_sha()}", f"-Dperfbench.sourceSha={source_sha}",
           "-cp", os.pathsep.join([classes, os.path.join(build.spark_jars(), "*")]),
           "perfbench.Main", *sys.argv[1:]]
    # Spark's scratch space stays inside the checkout; the environment
    # variable would override spark.local.dir.
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(build.BUILD, "spark-local"))
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        build.die(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
