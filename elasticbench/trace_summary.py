#!/usr/bin/env python3
"""Summarizes a Chrome trace written by elastic_cycle_bench --trace 1.

Usage: python3 elasticbench/trace_summary.py <trace.json> [--json]

Prints, per layer, the self time (span time minus the time its child spans
cover) per traced pass and the span count; then the share of run_s that no
layer span covers (the "bench" layer: the benchmark's own glue) and the
tracing overhead, traced run_s over untraced run_s from the same run.
With --json, prints the same numbers as one JSON object.
"""

import json
import sys
from collections import defaultdict


def summarize(trace):
    events = trace["traceEvents"]
    child_us = defaultdict(float)
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            child_us[parent] += e["dur"]
    self_us = defaultdict(float)
    count = defaultdict(int)
    passes = set()
    for e in events:
        layer = e["name"].split(".", 1)[0]
        self_us[layer] += e["dur"] - child_us[e["args"]["id"]]
        count[layer] += 1
        passes.add(e["args"]["pass"])
    # Self times partition the pass spans: their sum is the traced run time.
    pass_us = sum(self_us.values())
    other = trace.get("otherData", {})
    n = max(1, len(passes))
    return {
        "passes": len(passes),
        "layers": {layer: {"self_ms_per_pass": self_us[layer] / 1e3 / n,
                           "spans": count[layer]}
                   for layer in sorted(self_us)},
        "unattributed_share": self_us["bench"] / pass_us if pass_us else 0.0,
        "overhead_ratio": (other["traced_run_s"] / other["untraced_run_s"]
                           if other.get("untraced_run_s") else 0.0),
    }


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        summary = summarize(json.load(f))
    if "--json" in sys.argv[2:]:
        print(json.dumps(summary, sort_keys=True))
        return
    print("%-8s %14s %8s" % ("layer", "self ms/pass", "spans"))
    for layer, row in summary["layers"].items():
        print("%-8s %14.3f %8d" % (layer, row["self_ms_per_pass"],
                                   row["spans"]))
    print("unattributed share of run_s: %.4f" % summary["unattributed_share"])
    print("tracing overhead (traced/untraced run_s): %.4f"
          % summary["overhead_ratio"])


if __name__ == "__main__":
    main()
