#!/usr/bin/env python3
"""METAM benchmark runner: builds the program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --verify [--seed <n>]

Run from the repository root. The first call compiles `src/main/scala`,
`jobs/` and the harness in `perfbench/scala` with the Scala compiler that
ships in Spark's `jars/` directory (found through SPARK_HOME or the
`spark-submit` on PATH) into `.bench_build/perfbench.jar`; later calls reuse
it while the sources are unchanged. The harness then runs in one JVM with
the heap, GC and JVM flags below, and its last output line is the result.

`--verify` runs each workload three ways on one seed: untraced, traced and
through `Runner.run` itself, and fails unless the three print identical
fingerprints (scenario, method, queries, utility, solution).
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
import zipfile

WORKLOADS = ("tableII-causal", "tableII-classify")
BUILD = ".bench_build"
JAR = os.path.join(BUILD, "perfbench.jar")
ARCHIVE = os.path.join(BUILD, "perfbench.jsa")
HEAP = "3g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600
# Module access Spark needs on Java 17+ (Spark's launcher adds the same).
JVM_FLAGS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-XX:-UsePerfData",
    "-Xlog:all=warning:stderr",
    "-XX:+UseParallelGC",
    f"-Xms{HEAP}",
    f"-Xmx{HEAP}",
    "-Xss8m",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")] + [
    "--add-opens=java.security.jgss/sun.security.krb5=ALL-UNNAMED",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    homes = [os.environ.get("SPARK_HOME", "")]
    submit = shutil.which("spark-submit")
    if submit:
        homes.append(os.path.dirname(os.path.dirname(os.path.realpath(submit))))
    for home in homes:
        jars = os.path.join(home, "jars")
        if home and glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
            return jars
    fail("no Spark distribution with a Scala compiler found (set SPARK_HOME)")


def sources():
    """Program sources plus the harness. Main sources that need DuckDB, which
    is not on Spark's classpath, are left out: only the tests use them."""
    if not os.path.isdir("src/main/scala"):
        fail("src/main/scala not found: run from the repository root")
    files = sorted(glob.glob("src/main/scala/**/*.scala", recursive=True))
    files = [f for f in files if "org.duckdb" not in open(f, encoding="utf-8").read()]
    files += sorted(glob.glob("jobs/*.scala")) + sorted(glob.glob("perfbench/scala/**/*.scala", recursive=True))
    return files


def build(jars):
    """Compile into a jar, then record a class-data-sharing archive of the
    classes a run loads, which takes JVM and Spark start-up off every run.
    Both are rebuilt whenever a source changes."""
    files = sources()
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.encode() + b"\0" + open(f, "rb").read())
    stamp = digest.hexdigest()
    stamp_file = os.path.join(BUILD, "stamp")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return
    for f in (stamp_file, JAR, ARCHIVE):
        if os.path.exists(f):
            os.remove(f)
    classes = os.path.join(BUILD, "classes")
    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    cp = os.path.join(jars, "*")
    print(f"perfbench: compiling {len(files)} sources", file=sys.stderr)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    code = run_child(["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", f"-Djava.io.tmpdir={os.path.join(BUILD, 'tmp')}", "-cp", cp,
                      "scala.tools.nsc.Main", "-nowarn", "-d", classes, "-classpath", cp] + files,
                     BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail(f"compilation failed (exit {code})")
    with zipfile.ZipFile(JAR, "w") as jar:
        for root, _, names in os.walk(classes):
            for n in sorted(names):
                path = os.path.join(root, n)
                jar.write(path, os.path.relpath(path, classes))
    shutil.rmtree(classes)
    code = run_child(jvm(jars, [f"-XX:ArchiveClassesAtExit={os.path.abspath(ARCHIVE)}", "-Xlog:cds=off"]) + ["--train"],
                     BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail(f"class-loading run failed (exit {code})")
    with open(stamp_file, "w") as fh:
        fh.write(stamp)


def jvm(jars, extra):
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return ["java"] + JVM_FLAGS + extra + [
        f"-Djava.io.tmpdir={tmp}",
        "-Dlog4j2.configurationFile=perfbench/log4j2.properties",
        "-cp", os.path.abspath(JAR) + os.pathsep + os.path.join(jars, "*"),
        "repro.perfbench.Bench",
    ]


def run_child(cmd, timeout, stdout=None):
    """Run `cmd` in its own process group; kill the group on timeout. Spark
    keeps its scratch files inside the build directory."""
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.abspath(os.path.join(BUILD, "spark", "local")))
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True, env=env)
    try:
        return proc.wait(timeout=timeout)
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd[:3])} ...")


def bench(jars, args):
    cmd = jvm(jars, [f"-XX:SharedArchiveFile={os.path.abspath(ARCHIVE)}"]) + args
    out_path = os.path.join(BUILD, "tmp", f"out{os.getpid()}.txt")
    with open(out_path, "w+") as out:
        code = run_child(cmd, RUN_TIMEOUT_S, stdout=out)
        out.seek(0)
        lines = out.read().splitlines()
    os.remove(out_path)
    if code != 0:
        print("\n".join(lines))
        fail(f"benchmark exited with {code}")
    return lines


def result_of(lines):
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("the harness printed no result line")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    return res


def verify(jars, seed):
    ok = True
    for w in WORKLOADS:
        common = ["--workload", w, "--seed", str(seed), "--seconds", "0"]
        runs = {
            "untraced": bench(jars, common + ["--trace", "0"]),
            "traced": bench(jars, common + ["--trace", "1"]),
            "Runner.run": bench(jars, common + ["--trace", "0", "--plain"]),
        }
        fps = {k: [l for l in v if l.startswith("FP ")] for k, v in runs.items()}
        same = fps["untraced"] == fps["traced"] == fps["Runner.run"] and fps["untraced"]
        print(f"{w}: {len(fps['untraced'])} fingerprint lines, untraced/traced/Runner.run "
              f"{'identical' if same else 'DIFFER'}")
        for line in fps["Runner.run"]:
            print(f"  {line}")
        for k in ("untraced", "traced"):
            res = result_of(runs[k])
            print(f"  {k}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
            ok = ok and res["correct"] and res["failed"] == 0
        ok = ok and bool(same)
    print("verify:", "OK" if ok else "FAILED")
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2023)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--verify", action="store_true")
    a = p.parse_args()
    if not a.verify and not a.workload:
        p.error("--workload is required")

    jars = spark_jars()
    build(jars)
    if a.verify:
        verify(jars, a.seed)
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    if a.trace:
        args += ["--trace-out", os.path.join(BUILD, "traces", f"{a.workload}-seed{a.seed}.jsonl")]
    lines = bench(jars, args)
    res = result_of(lines)
    print("\n".join(lines[:-1]))
    print(json.dumps(res))


if __name__ == "__main__":
    main()
