#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py        # from the repository root, ~3 minutes

For each workload, in an untraced and a traced run on XS at row scale 0.05,
checks that the last output line parses, has exactly the keys `correct`,
`attempted`, `failed` and `metrics`, reports a correct run, and names every
metric of `BENCHMARK.json` (end-to-end or per-layer) with its unit and a
finite value. Then checks that the benchmark fails without printing a
result in a directory that holds only `BENCHMARK.json` and `perfbench/`.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = ["python3", os.path.join("perfbench", "run.py")]
TINY = ["--seconds", "2", "--row-scale", "0.05", "--warmup-seconds", "1"]


def fail(msg):
    print(f"selftest FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def check_run(bench, workload, trace):
    p = subprocess.run(RUN + ["--workload", workload, "--seed", "7", "--trace", str(trace)] + TINY,
                       cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        fail(f"{workload} trace={trace} exited {p.returncode}: {p.stderr[-2000:]}")
    last = json.loads(p.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(last)}")
    if last["correct"] is not True or last["failed"] != 0:
        fail(f"{workload} trace={trace}: incorrect run {last}")
    if not isinstance(last["attempted"], int) or last["attempted"] < 1:
        fail(f"{workload}: attempted {last['attempted']}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    got = last["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        fail(f"{workload} trace={trace}: metric names differ: "
             f"missing {sorted({m['name'] for m in wanted} - set(got))}, "
             f"extra {sorted(set(got) - {m['name'] for m in wanted})}")
    for m in wanted:
        v = got[m["name"]]
        if v["unit"] != m["unit"] or not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            fail(f"{workload}: bad metric {m['name']}: {v}")
        if not trace and v["value"] == 0:
            fail(f"{workload}: end-to-end metric {m['name']} is 0")
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, {last['attempted']} queries")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(RUN + ["--workload", "xs-full-query", "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if p.returncode == 0 or p.stdout.strip():
        fail(f"bare directory: exit {p.returncode}, stdout {p.stdout[-500:]!r}")
    print("ok  bare directory fails without a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
