#!/usr/bin/env python3
"""Run one WarpGate benchmark workload; print its result as the last line.

    python3 perfbench/run.py --workload xs-full-query --seed 1 --seconds 20 --trace 0

Run it from the repository root. It compiles the program and the harness
(`build.py`) on first use, then runs one JVM with local Spark that sets up,
measures for `--seconds` seconds and checks every answer. The last line of
standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when `--trace 0` and the per-layer metrics when
`--trace 1`. The line before it holds the run's metadata. The full report
(metrics, checks, metadata) and, when traced, the spans are written under
`.bench_build/perfbench/runs/`. Workloads and metrics: README.md here.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

JVM_TIMEOUT_S = 170
HEAP = "3g"
# Module openings Spark needs on Java 17 (the list spark-submit passes).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        return out.stdout.strip() or None
    except OSError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--row-scale", default="1.0", help="NextiaJD XS row scale (default 1:1)")
    ap.add_argument("--warmup-seconds", default="10", help="untimed queries before measuring, in seconds")
    a = ap.parse_args()

    root = os.getcwd()
    try:
        classes = build.build(root)
        jars = build.spark_jars()
    except build.BuildError as e:
        print(f"[perfbench] build error: {e}", file=sys.stderr)
        return 2

    out = os.path.join(root, build.OUT)
    runs = os.path.join(out, "runs")
    tmp = os.path.join(out, "tmp")
    for d in (runs, tmp):
        os.makedirs(d, exist_ok=True)
    name = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    report = os.path.join(runs, name + ".json")
    spans = os.path.join(runs, name + ".spans.json")
    if os.path.exists(report):
        os.remove(report)

    cmd = (["java", f"-Xmx{HEAP}", "-XX:+UseG1GC"] +
           [f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS] +
           ["-Dspark.driver.host=127.0.0.1",
            f"-Dspark.local.dir={tmp}",
            f"-Djava.io.tmpdir={tmp}",
            f"-Dspark.sql.warehouse.dir={os.path.join(tmp, 'warehouse')}",
            f"-Dlog4j2.configurationFile={os.path.join(root, 'perfbench', 'log4j2.properties')}"] +
           ["-cp", os.pathsep.join([classes, os.path.join(jars, "*")]),
            "repro.perfbench.PerfBench",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace, "--row-scale", a.row_scale, "--warmup-seconds", a.warmup_seconds,
            "--report", report] +
           (["--trace-out", spans] if a.trace == "1" else []))
    proc = subprocess.Popen(cmd, cwd=root, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"[perfbench] run exceeded {JVM_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3
    if code != 0 or not os.path.exists(report):
        print(f"[perfbench] JVM exited with code {code}", file=sys.stderr)
        return 3

    with open(report) as f:
        r = json.load(f)
    r["meta"]["git_sha"] = git_sha(root)
    r["meta"]["source_sha256"] = build.source_stamp(root, jars)
    with open(report, "w") as f:
        json.dump(r, f, indent=1, sort_keys=True)
    print(json.dumps({"meta": r["meta"], "checks": r["checks"]}, sort_keys=True))
    # Per-query latencies stay in the report file.
    print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
