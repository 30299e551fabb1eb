#!/usr/bin/env python3
"""Validate and compare delorean_bench result files (stdlib only).

    check_benchmark.py RESULT.json [RESULT.json ...]
    check_benchmark.py --compare A B

A result file is what `delorean_bench --workload all --json FILE` writes.
The first form checks each file against BENCHMARK.json: every workload
present, every end-to-end metric finite with its declared unit and a
sample count, no failed operation, and for a traced file (--trace 1)
every per-layer metric as well, with core.unattributed_pct at most 5.

The second form compares two sets of runs of the same benchmark. A and B
are each a result file or a directory of them; A is the parent, B the
change. For every (workload, end-to-end metric) it prints both medians,
the change, the metric's bound and a verdict:

  ok          B's median is no worse than A's by more than the bound;
  worse       it is worse by more than the bound;
  unresolved  A's own runs spread (interquartile range over median) more
              than the bound, and not every run of B beats every run of A.

Comparing untraced runs (A) with traced runs (B) measures what tracing
costs end to end. The exit status is non-zero on any failed check, and
for --compare on any verdict other than ok.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MAX_UNATTRIBUTED_PCT = 5.0


def load_benchmark(path):
    """(workload names, end-to-end specs, per-layer specs)."""
    bench = json.loads(Path(path).read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    return workloads, bench["end_to_end"], bench["per_layer"]


def result_files(path):
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        if not files:
            sys.exit(f"{path}: no result files")
        return files
    return [path]


def validate(path, workloads, end_to_end, per_layer):
    """Return the problems found in one result file."""
    result = json.loads(Path(path).read_text())
    problems = []
    declared = list(end_to_end)
    if result.get("trace") == 1:
        declared += per_layer
    for workload in workloads:
        record = result.get("workloads", {}).get(workload)
        if record is None:
            problems.append(f"{workload}: missing")
            continue
        if record.get("failed") != 0 or not record.get("attempted"):
            problems.append(f"{workload}: failed_frac != 0 "
                            f"({record.get('failed')} of "
                            f"{record.get('attempted')} operations)")
        metrics = record.get("metrics", {})
        for spec in declared:
            m = metrics.get(spec["name"])
            if m is None:
                problems.append(f"{workload}.{spec['name']}: missing")
                continue
            value = m.get("value")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{workload}.{spec['name']}: not finite")
            if m.get("unit") != spec["unit"]:
                problems.append(f"{workload}.{spec['name']}: unit "
                                f"{m.get('unit')!r}, declared {spec['unit']!r}")
            if not m.get("n"):
                problems.append(f"{workload}.{spec['name']}: no sample count")
        unattributed = metrics.get("core.unattributed_pct")
        if (result.get("trace") == 1 and unattributed
                and unattributed["value"] > MAX_UNATTRIBUTED_PCT):
            problems.append(f"{workload}: core.unattributed_pct "
                            f"{unattributed['value']:.2f} > "
                            f"{MAX_UNATTRIBUTED_PCT}")
    return problems


def spread(values):
    """Interquartile range over median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q[2] - q[0]) / abs(median) if median else math.inf


def verdict(a, b, spec):
    """(delta, verdict) of B against A for one metric, by the rule above."""
    lower = spec["better"] == "lower"
    med_a, med_b = statistics.median(a), statistics.median(b)
    delta = (med_b - med_a) / abs(med_a) if med_a else 0.0
    worse_by = delta if lower else -delta
    if spread(a) > spec["bound"]:
        b_wins = max(b) < min(a) if lower else min(b) > max(a)
        return delta, "ok" if b_wins else "unresolved"
    return delta, "worse" if worse_by > spec["bound"] else "ok"


def compare(a_path, b_path, workloads, end_to_end):
    def collect(path):
        values = {}
        for f in result_files(path):
            for workload, record in json.loads(f.read_text())["workloads"].items():
                for name, m in record["metrics"].items():
                    values.setdefault((workload, name), []).append(m["value"])
        return values

    a, b = collect(a_path), collect(b_path)
    print(f"{'workload':12} {'metric':17} {'median A':>12} {'median B':>12} "
          f"{'delta':>8} {'bound':>6}  verdict")
    ok = True
    for workload in workloads:
        for spec in end_to_end:
            key = (workload, spec["name"])
            if key not in a or key not in b:
                print(f"{workload:12} {spec['name']:17} missing")
                ok = False
                continue
            delta, v = verdict(a[key], b[key], spec)
            ok = ok and v == "ok"
            print(f"{workload:12} {spec['name']:17} "
                  f"{statistics.median(a[key]):12.6g} "
                  f"{statistics.median(b[key]):12.6g} {delta:+8.2%} "
                  f"{spec['bound']:6.0%}  {v}")
    return ok


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("results", nargs="*", help="result files to validate")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    workloads, end_to_end, per_layer = load_benchmark(HERE.parent / "BENCHMARK.json")

    if args.compare:
        sys.exit(0 if compare(*args.compare, workloads, end_to_end) else 1)
    if not args.results:
        parser.error("give result files to validate, or --compare A B")
    failed = False
    for path in args.results:
        problems = validate(path, workloads, end_to_end, per_layer)
        for p in problems:
            print(f"{path}: {p}")
        print(f"{path}: {'FAIL' if problems else 'ok'}")
        failed = failed or bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
