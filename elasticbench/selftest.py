#!/usr/bin/env python3
"""Self-test of the elastic-cycle benchmark, on smoke-size inputs.

Usage, from the repository root:

    python3 elasticbench/selftest.py

For every workload in BENCHMARK.json, and for modis-raster, which runs by
hand only (README.md, "Workloads"), it checks that
  * an untraced run prints every end_to_end metric with its unit, each a
    positive finite number, with "correct": true and no failed operation;
  * a traced run prints every per_layer metric with its unit, and the
    trace summarizer's per-layer self times and unattributed share agree
    with the ones the run printed;
  * a run given a perturbed expected digest fails: non-zero exit and
    "correct": false.
It also checks that in a directory holding only BENCHMARK.json and the
benchmark's own files the benchmark exits non-zero without printing a
result. Exits non-zero at the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402
import trace_summary  # noqa: E402

SEED = 7
LAYERS = ("array", "core", "reorg", "engine", "exec", "join", "serve")
BY_HAND_WORKLOADS = ("modis-raster",)


def check(ok, message):
    if not ok:
        print("FAIL: " + message)
        sys.exit(1)


def run(workload, trace, extra=(), cwd=ROOT, env=None, program=None):
    """Runs run.py, or the built binary itself when `program` is given."""
    program = program or [sys.executable,
                          os.path.join(cwd, "elasticbench", "run.py")]
    cmd = [*program, "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.2", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


def check_metrics(workload, result, specs, kind):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "%s: result keys %s" % (workload, sorted(result)))
    names = [m["name"] for m in specs]
    check(sorted(result["metrics"]) == sorted(names),
          "%s: %s metrics differ from BENCHMARK.json: %s" % (
              workload, kind,
              sorted(set(result["metrics"]) ^ set(names))))
    for spec in specs:
        got = result["metrics"][spec["name"]]
        check(got["unit"] == spec["unit"], "%s: %s has unit %s, not %s" % (
            workload, spec["name"], got["unit"], spec["unit"]))
        check(isinstance(got["value"], (int, float)) and
              math.isfinite(got["value"]),
              "%s: %s is not a finite number" % (workload, spec["name"]))
        if kind == "end_to_end":
            check(got["value"] > 0, "%s: %s is not positive" % (
                workload, spec["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads + list(BY_HAND_WORKLOADS):
        proc, result = run(workload, 0)
        check(proc.returncode == 0 and result is not None,
              "%s: untraced run failed:\n%s" % (workload, proc.stderr[-2000:]))
        check(result["correct"] and result["failed"] == 0
              and result["attempted"] >= 1,
              "%s: untraced run not correct: %s" % (workload, result))
        check_metrics(workload, result, bench["end_to_end"], "end_to_end")

        proc, result = run(workload, 1)
        check(proc.returncode == 0 and result is not None,
              "%s: traced run failed:\n%s" % (workload, proc.stderr[-2000:]))
        check(result["correct"], "%s: traced run not correct" % workload)
        check_metrics(workload, result, bench["per_layer"], "per_layer")
        trace_path = os.path.join(bench_run.build_dir(), "traces",
                                  "%s-%d.json" % (workload, SEED))
        with open(trace_path) as f:
            summary = trace_summary.summarize(json.load(f))
        metrics = result["metrics"]
        for layer in LAYERS:
            ours = summary["layers"].get(layer, {}).get("self_ms_per_pass", 0)
            theirs = metrics[layer + ".self_ms"]["value"]
            check(math.isclose(ours, theirs, rel_tol=1e-6, abs_tol=1e-6),
                  "%s: %s self time %.6f ms in the trace, %.6f printed" % (
                      workload, layer, ours, theirs))
        check(math.isclose(summary["unattributed_share"],
                           metrics["trace.unattributed_share"]["value"],
                           rel_tol=1e-6, abs_tol=1e-9),
              "%s: unattributed share differs" % workload)

        binary = os.path.join(bench_run.build_dir(), bench_run.BINARY)
        proc, result = run(workload, 0, ("--expect-digest", "0" * 16),
                           program=[binary])
        check(proc.returncode != 0 and result is not None
              and result["correct"] is False,
              "%s: a perturbed expected digest did not fail the run" % workload)
        print("ok %s" % workload)

    # Only BENCHMARK.json and the benchmark's files: no library to build.
    bare = os.path.join(bench_run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "elasticbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc, result = run(bench["workloads"][0]["name"], 0, cwd=bare, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and result is None,
          "bare directory: the benchmark did not fail cleanly")
    print("ok bare directory")


if __name__ == "__main__":
    main()
