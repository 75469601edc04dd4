"""Steadiness report: repeat runs on one commit and show each metric's spread.

    python3 servebench/steadiness.py --runs 10 [--first-seed N] [--workloads a,b]
        [--seconds N] [--json servebench/_out/steadiness.json] [--against FILE]

Runs ``servebench/run.py`` once per seed (``first-seed..``) for each
workload, from the root of the checkout, and prints for every
end-to-end metric its median, first and third quartile, and the spread
``(Q3 - Q1) / median`` beside the metric's bound from ``BENCHMARK.json``.
A metric whose spread exceeds its bound is flagged ``OVER``; one whose
spread is above a third of its bound is flagged ``wide``. Quartiles are
``statistics.quantiles(values, n=4)``. The ``--json`` report also keeps
every value, each run's standard error (its episode times and raw,
uncalibrated figures) and its wall time. ``--against`` takes such a report from an earlier
set of runs and adds, per metric, how much worse this set's median is
than the earlier one, as a share of the earlier median; a change beyond
the bound is flagged ``WORSE``. Exits 1 when any run fails, any spread is
over its bound or any median is worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def spread(values: "list[float]") -> "tuple[float, float, float, float]":
    """(median, Q1, Q3, IQR / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--json", help="also write the report here")
    parser.add_argument("--against", help="an earlier --json report to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in spec["workloads"]]
    )
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    report: dict = {}
    ok = True
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            argv = [
                *spec["command"], "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            start = time.monotonic()
            done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            wall_s = time.monotonic() - start
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(done.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: run failed")
            result = json.loads(lines[-1])
            result["stderr"] = done.stderr
            result["wall_s"] = wall_s
            runs.append(result)
            print(f"# {workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}, {wall_s:.1f} s", file=sys.stderr, flush=True)
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        rows = {}
        print(f"\n{workload}  ({len(runs)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + len(runs) - 1}, {seconds:g} s each)")
        print(f"  {'metric':22} {'median':>12} {'Q1':>12} {'Q3':>12} "
              f"{'IQR/med':>8} {'bound':>6}" + ("  worse-by" if earlier else ""))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            flag = "OVER" if share > bound else "wide" if share > bound / 3 else ""
            ok &= share <= bound
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "iqr_share": share, "bound": bound, "values": values}
            change = ""
            if name in earlier.get(workload, {}):
                before = earlier[workload][name]["median"]
                worse = (median - before) / before
                if not lower_is_better[name]:
                    worse = -worse
                ok &= worse <= bound
                rows[name]["worse_than_earlier"] = worse
                change = f"  {worse:+8.4f}" + (" WORSE" if worse > bound else "")
            print(f"  {name:22} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{share:8.4f} {bound:6.2f} {flag:4}{change}")
        rows["stderr"] = [r["stderr"] for r in runs]
        rows["wall_s"] = [r["wall_s"] for r in runs]
        report[workload] = rows
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(report, indent=1, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
