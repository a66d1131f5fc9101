#!/usr/bin/env python3
"""Summarizes perfbench run logs: median and spread of every metric.

    python3 perfbench/summarize.py <runs-dir> [<baseline-runs-dir>]

Each *.log in a runs directory is the stdout of one perfbench/run.py
invocation. For every workload and metric the summary prints the median,
the quartiles (statistics.quantiles, n=4) and the spread IQR/median, and
flags a spread above the metric's bound in BENCHMARK.json (setup_s is
exempt: its bound is a drift limit, not a spread limit). With a
baseline directory it also prints each median's change against the
baseline's and flags a change for the worse beyond the bound. The host
fingerprint of the runs (cores, load average, steal ticks) is printed
alongside. Exits 1 when any run failed, was incorrect, or was flagged.
"""

import glob
import json
import os
import statistics
import sys


def load_runs(directory):
    """Returns {workload: [(result, detail), ...]} from a runs directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.log"))):
        result, detail = None, None
        with open(path) as f:
            lines = [line.strip() for line in f if line.strip()]
        for line in lines:
            if line.startswith("detail "):
                detail = json.loads(line[len("detail "):])
        if lines and lines[-1].startswith("{"):
            result = json.loads(lines[-1])
        if result is None or detail is None:
            print(f"{path}: no result (run failed)")
            runs.setdefault("<failed>", []).append((None, None))
            continue
        runs.setdefault(detail["workload"], []).append((result, detail))
    return runs


def spread(values):
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    runs = load_runs(sys.argv[1])
    base = load_runs(sys.argv[2]) if len(sys.argv) == 3 else {}
    bad = "<failed>" in runs

    for workload, entries in sorted(runs.items()):
        if workload == "<failed>":
            continue
        details = [d for _, d in entries]
        loads = [d["loadavg_1m"] for d in details]
        steal = [d["steal_ticks"] for d in details]
        print(f"\n{workload}: {len(entries)} runs, nproc {details[0]['nproc']},"
              f" load avg {min(loads):.1f}-{max(loads):.1f},"
              f" steal ticks {sum(s for s in steal if s >= 0)}")
        for result, detail in entries:
            if not result["correct"] or result["failed"]:
                bad = True
                print(f"  seed {detail['seed']}: correct={result['correct']}"
                      f" failed={result['failed']}/{result['attempted']}"
                      f" self_check={detail['self_check']}")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'iqr/med':>8} {'bound':>6}"
              + (f" {'vs base':>8}" if base else ""))
        for name, m in spec.items():
            values = [r["metrics"][name]["value"] for r, _ in entries]
            median, q1, q3, rel = spread(values)
            flag = ""
            if name != "setup_s" and rel > m["bound"]:
                flag = "  SPREAD > BOUND"
            line = (f"  {name:<18} {median:>12.4f} {q1:>12.4f} {q3:>12.4f}"
                    f" {rel:>8.3f} {m['bound']:>6.2f}")
            if workload in base:
                base_median = statistics.median(
                    r["metrics"][name]["value"] for r, _ in base[workload])
                change = median / base_median - 1 if base_median else 0.0
                worse = change if m["better"] == "lower" else -change
                line += f" {change:>+8.3f}"
                if worse > m["bound"]:
                    flag += "  WORSE THAN BASE"
            print(f"{line} {m['unit']}{flag}")
            bad = bad or bool(flag)
        p99 = [d["latency_p99_ms"] for d in details]
        samples = [d["samples"] for d in details]
        print(f"  latency_p99_ms (not gated) median {statistics.median(p99):.3f}"
              f" ms; latency samples per run {min(samples)}-{max(samples)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
