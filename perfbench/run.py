#!/usr/bin/env python3
"""Benchmark entry point. Run from the root of a checkout:

    python3 perfbench/run.py --workload orkut-lite --seed 11 --seconds 25 --trace 0

Compiles the program (src/main/scala) and the harness (perfbench/src) from
source with the Scala compiler that ships in Spark's jars directory (only
when a source file changed since the last build), then runs the harness in
one JVM with a local[nproc] SparkSession. The harness prints JSON lines; the
last line of standard output is the result object. This script checks that
the result carries exactly the metrics BENCHMARK.json names for the chosen
mode.

Everything the build and the run write goes under .bench_build/ in the
checkout.
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER_MEMORY = "4g"
COMPILER_MEMORY = "2g"
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170

# Program sources and harness sources, compiled together.
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src", "main", "scala")]

# The JDK 17 module openings Spark needs (the set spark-submit adds).
JVM_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    )
]

# No hsperfdata files: a JVM would otherwise write them outside the checkout.
JVM_COMMON = ["-XX:+IgnoreUnrecognizedVMOptions", "-XX:-UsePerfData"]


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def spark_jars():
    """Spark's jars directory: $SPARK_HOME/jars, else found from
    spark-submit on the PATH. The program compiles against these jars, as
    the root build does, and they include the Scala compiler."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        fail("no Spark jars directory with a Scala compiler (set SPARK_HOME)")
    return jars


def sources():
    """Every Scala source to compile. Sources that use DuckDB (the test
    oracle) are left out: the harness never calls them and DuckDB is not
    among Spark's jars."""
    if not os.path.isdir(SOURCE_DIRS[0]):
        fail("no program sources at src/main/scala")
    out = []
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(d):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".scala"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as f:
                        if "org.duckdb" not in f.read():
                            out.append(path)
    return out


def source_digest(srcs, jars):
    """SHA-256 over the sources, the compiler's classpath and this script;
    a changed digest triggers a rebuild."""
    h = hashlib.sha256()
    for path in srcs + [os.path.abspath(__file__)]:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    h.update("\n".join(sorted(os.listdir(jars))).encode())
    return h.hexdigest()


def run_bounded(cmd, cwd, timeout, stdout=None, env=None):
    """Run cmd in its own process group; kill the whole group on timeout.
    Returns (exit code, captured stdout or None)."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdin=subprocess.DEVNULL, stdout=stdout, stderr=None,
                            env=env, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("timed out after %ds: %s" % (timeout, " ".join(cmd[:3])))
        return 124, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(srcs, jars, digest):
    """Compile the sources into .bench_build unless this digest is already
    built. Returns the directory of the compiled classes."""
    stamp = os.path.join(BUILD_DIR, "stamp")
    classes = os.path.join(BUILD_DIR, "classes")
    if os.path.exists(stamp) and os.path.isdir(classes):
        with open(stamp) as f:
            if f.read().strip() == digest:
                return classes
    tmp = os.path.join(BUILD_DIR, "tmp")
    staging = os.path.join(BUILD_DIR, "classes.new")
    for d in (classes, staging):
        shutil.rmtree(d, ignore_errors=True)
    if os.path.exists(stamp):
        os.remove(stamp)
    os.makedirs(staging)
    os.makedirs(tmp, exist_ok=True)
    args_file = os.path.join(BUILD_DIR, "sources.txt")
    with open(args_file, "w") as f:
        f.write("\n".join('"%s"' % p for p in srcs) + "\n")
    log("compiling %d sources ..." % len(srcs))
    t0 = time.time()
    code, _ = run_bounded(
        ["java", "-Xmx" + COMPILER_MEMORY, "-Djava.io.tmpdir=" + tmp] + JVM_COMMON + [
            "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
            "-usejavacp", "-nowarn", "-d", staging, "@" + args_file],
        cwd=ROOT, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail("build failed (exit %d)" % code)
    os.rename(staging, classes)
    with open(stamp, "w") as f:
        f.write(digest)
    log("built in %.1fs" % (time.time() - t0))
    return classes


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["orkut-lite", "dense-planted"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    expected = expected_metrics(args.trace)
    jars = spark_jars()
    srcs = sources()
    digest = source_digest(srcs, jars)
    classes = build(srcs, jars, digest)
    cp = os.pathsep.join([classes, os.path.join(jars, "*")])
    cores = len(os.sched_getaffinity(0))
    local = os.path.join(BUILD_DIR, "spark-local")
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(local, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("SPARK_LOCAL_IP", "127.0.0.1")
    env.setdefault("SPARK_LOCAL_HOSTNAME", "localhost")
    cmd = ["java", "-Xmx" + DRIVER_MEMORY] + JVM_COMMON + [
           "-Dspark.driver.host=127.0.0.1", "-Djava.io.tmpdir=" + tmp,
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties")] + JVM_OPENS + [
        "-cp", cp, "perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--cores", str(cores), "--driver-memory", DRIVER_MEMORY,
        "--git-sha", git_sha(), "--source-digest", digest, "--local-dir", local,
    ]
    code, out = run_bounded(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE, env=env)
    lines = (out or "").strip().splitlines()
    if code != 0 or not lines:
        if out:
            sys.stdout.write(out)
        log("harness failed (exit %d)" % code)
        sys.exit(code or 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("the harness's last output line is not a JSON result")
    missing = sorted(set(expected) - set(result["metrics"]))
    extra = sorted(set(result["metrics"]) - set(expected))
    if missing or extra:
        log("metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra))
        result["correct"] = False
    result["metrics"] = {k: result["metrics"][k] for k in expected if k in result["metrics"]}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
