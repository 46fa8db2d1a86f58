#!/usr/bin/env python3
"""Build and run the CTT benchmark.

Run from the repository root:

    python3 cttbench/run.py --workload bulk_ingest --seed 1 --seconds 10 --trace 0
    python3 cttbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The first run compiles the program's main sources together with the
benchmark (sbt, in this directory) and caches the classpath under
`.bench_build/`; later runs start the JVM directly. The last line of standard
output is the run's JSON result. `--workload all` runs every workload in turn
and prints a table of all their figures instead.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["bulk_ingest", "live_ingest", "analyses"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
HEAP = "-Xmx3g"
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar",
]

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print(f"cttbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_stamp(root):
    """Hash of every input of the build, so an edited source rebuilds."""
    h = hashlib.sha256()
    dirs = [os.path.join(root, "src", "main"), os.path.join(BENCH_DIR, "src", "main")]
    files = [os.path.join(BENCH_DIR, "build.sbt"),
             os.path.join(BENCH_DIR, "project", "build.properties")]
    for d in dirs:
        for base, _, names in os.walk(d):
            files += [os.path.join(base, n) for n in names]
    for f in sorted(files):
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found (set SPARK_HOME)")
    return home


def communicate(cmd, cwd, env, timeout, what, merge_stderr=False):
    """Runs `cmd` in its own process group and returns its standard output.
    On a timeout or a failure the whole group is stopped and the run fails.
    """
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT if merge_stderr else None,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{what} did not finish within {timeout} s")
    if proc.returncode != 0:
        if merge_stderr:
            sys.stderr.write(out[-4000:])
        fail(f"{what} exited with code {proc.returncode}")
    return out


def build(root, build_dir):
    """Compile with sbt unless the cached classpath matches the sources."""
    stamp = source_stamp(root)
    cp_file = os.path.join(build_dir, "classpath.txt")
    stamp_file = os.path.join(build_dir, "stamp.txt")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as fh:
                    return fh.read().strip()
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    env = dict(os.environ, SPARK_HOME=spark_home())
    t0 = time.time()
    out = communicate(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
         "export Runtime/fullClasspath"],
        BENCH_DIR, env, BUILD_TIMEOUT_S, "the build", merge_stderr=True)
    lines = [l for l in out.splitlines() if l.strip()]
    classpath = lines[-1].strip() if lines else ""
    if "cttbench" not in classpath or ":" not in classpath:
        sys.stderr.write(out[-4000:])
        fail("could not read the classpath from sbt")
    os.makedirs(build_dir, exist_ok=True)
    with open(cp_file, "w") as fh:
        fh.write(classpath)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    print(f"cttbench: built in {time.time() - t0:.0f} s", file=sys.stderr)
    return classpath


def run_one(root, classpath, workload, args):
    """One JVM run of one workload; returns the parsed JSON result."""
    work = os.path.join(root, ".bench_build", "work", f"{workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    cmd = ["java", HEAP, "-XX:+UseG1GC", f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
    cmd += ["-cp", classpath, "cttbench.Main",
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-root", work,
            "--out-dir", os.path.join(root, ".bench_build", "traces")]
    try:
        out = communicate(cmd, work, None, RUN_TIMEOUT_S, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail(f"{workload} printed no result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no result")
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "main", "scala", "repro")):
        fail("run from the repository root: the program sources are missing")
    classpath = build(root, os.path.join(root, ".bench_build", "cttbench"))

    if args.workload != "all":
        print(json.dumps(run_one(root, classpath, args.workload, args)))
        return
    results = {w: run_one(root, classpath, w, args) for w in WORKLOADS}
    for w, r in results.items():
        print(f"{w}: correct={r['correct']} ops_attempted={r['attempted']} "
              f"ops_failed={r['failed']}")
        for name, m in r["metrics"].items():
            print(f"  {name:34s} {m['value']:16.4f} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
