#!/usr/bin/env python3
"""Builds and runs the elastic-cycle benchmark.

Usage, from the repository root:

    python3 elasticbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1> [--smoke]

The benchmark package (elasticbench/CMakeLists.txt) is built from source
into $CARGO_TARGET_DIR/elasticbench (default .bench_build/elasticbench)
before every run; an up-to-date build is a no-op. The run's result digest
is checked against expected_digests.json when the seed is listed there;
the default and held-out seeds it pins are printed first.
With --trace 1 the Chrome trace is written under the build directory and
summarized on stderr. The last line of stdout is the result JSON.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "elastic_cycle_bench"
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("elasticbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "elasticbench")


def build(bdir):
    """Configures once, then builds; compiler scratch files stay in bdir."""
    sources = os.path.join(ROOT, "src", "core", "elastic_engine.h")
    if not os.path.isfile(sources):
        fail(2, "library sources (src/) not found next to elasticbench/")
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    with open(os.path.join(bdir, "build.log"), "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env, check=False).returncode != 0:
                log.flush()
                with open(log.name) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(3, "build failed: " + " ".join(cmd))


def load_digests():
    with open(os.path.join(HERE, "expected_digests.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every size (self-test only)")
    args = parser.parse_args()

    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    build(bdir)

    cmd = [os.path.join(bdir, BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    pinned = load_digests()
    digest = None
    if not args.smoke:
        digest = pinned["digests"].get(args.workload, {}).get(str(args.seed))
    if digest:
        cmd += ["--expect-digest", digest]
    if args.smoke:
        cmd.append("--smoke")
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(bdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, "%s-%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", trace_path]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(4, "run exceeded %d s" % RUN_TIMEOUT_S)
    if trace_path and proc.returncode == 0 and os.path.isfile(trace_path):
        subprocess.run([sys.executable, os.path.join(HERE, "trace_summary.py"),
                        trace_path], stdout=sys.stderr, check=False)
    print(json.dumps({"seeds": {"default": pinned["default_seed"],
                                "held_out": pinned["held_out_seed"]},
                      "expected_digest": digest}))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
