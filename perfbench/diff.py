#!/usr/bin/env python3
"""Layer-by-layer diff of two sets of benchmark results.

    python3 perfbench/diff.py BASE CHANGE

BASE and CHANGE are files holding the standard output of one or more
`perfbench/run.py` runs (append each run with `>>`). Runs are grouped by
workload and by traced or untraced; each metric's median over a group is
compared. End-to-end metrics (untraced runs) are flagged against the
`better` direction and `bound` in BENCHMARK.json; per-layer metrics (traced
runs) are printed with their deltas only.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """Returns {(workload, trace): {metric: ([values], unit)}} for a file."""
    groups = {}
    context = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if "context" in obj:
                context = obj["context"]
            elif "metrics" in obj and context is not None:
                key = (context["workload"], int(context["trace"]))
                group = groups.setdefault(key, {})
                for name, metric in obj["metrics"].items():
                    values, _ = group.setdefault(name, ([], metric["unit"]))
                    values.append(metric["value"])
                context = None
    return groups


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    limits = bounds()
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print("%s (%s)" % (workload, "per-layer" if trace else "end-to-end"))
        for name in sorted(set(base[key]) & set(change[key])):
            a_values, unit = base[key][name]
            b_values, _ = change[key][name]
            a = statistics.median(a_values)
            b = statistics.median(b_values)
            if a == 0 and b == 0:
                continue  # a layer this workload does not exercise
            delta = (b - a) / abs(a) if a else float("nan")
            flag = ""
            limit = limits.get(name)
            if limit is not None and a:
                worse = delta if limit["better"] == "lower" else -delta
                flag = "  WORSE than bound %.0f%%" % (
                    100 * limit["bound"]) if worse > limit["bound"] else ""
            print("  %-30s %14.6g -> %-14.6g %-6s %+8.2f%%  (n=%d/%d)%s" % (
                name, a, b, unit, 100 * delta, len(a_values), len(b_values),
                flag))
    missing = sorted(set(base) ^ set(change))
    if missing:
        print("only in one file: %s" % ", ".join(
            "%s/trace%d" % k for k in missing))


if __name__ == "__main__":
    main()
