#!/usr/bin/env python3
"""Run one benchmark workload against the repository it sits in.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. On first use it builds the program and
the benchmark from source with sbt (the build under perfbench/ depends on
the root project) and caches the classpath in .bench_build/perfbench; later
runs reuse it while the sources are unchanged. The benchmark itself runs in
one JVM; its last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["tableII", "anytime-paper-scale", "spark"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700

# Spark on Java 17 needs these modules opened to it.
JAVA_OPTS = [
    "-Xms3g", "-Xmx3g",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % m for m in [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]]


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_stamp():
    """Digest of every file the build reads, to know when to rebuild."""
    files = [ROOT / "build.sbt", BENCH / "build.sbt"]
    for base in [ROOT / "project", BENCH / "project"]:
        files += sorted(base.glob("*.properties")) + sorted(base.glob("*.sbt"))
    for base in [ROOT / "src" / "main", ROOT / "jobs", BENCH / "src"]:
        files += sorted(p for p in base.rglob("*") if p.is_file())
    h = hashlib.sha256()
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def classpath():
    stamp = source_stamp()
    cached = OUT / "classpath.txt"
    if cached.is_file():
        saved_stamp, cp = cached.read_text().split("\n", 1)
        if saved_stamp == stamp:
            return cp.strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
    try:
        proc = subprocess.run(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-error", "export Runtime/fullClasspath"],
            cwd=BENCH, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        fail("build failed", 3)
    cp = lines[-1].strip()
    OUT.mkdir(parents=True, exist_ok=True)
    cached.write_text(stamp + "\n" + cp + "\n")
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail("no program to measure: %s has no build.sbt and src/main/scala" % ROOT, 2)

    cp = classpath()
    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    cmd = ["java"] + JAVA_OPTS + ["-cp", cp, "repro.perfbench.Main",
                                  "--workload", args.workload, "--seed", str(args.seed),
                                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                                  "--work", str(work)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or "metrics" not in result:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-8000:])
        fail("run failed (exit %d)" % proc.returncode, 4)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
