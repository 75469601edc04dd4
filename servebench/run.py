"""The served benchmark: one command, one workload, one JSON line.

    python3 servebench/run.py --workload hot_small_docs --seed 1 \\
        --seconds 12 --trace 0

Run from the root of a checkout: the program under test is imported
from ``src/`` there (never from an installed copy) and served by a
``python -m repro.cli serve`` subprocess. Each run

1. builds the seeded documents and schedule and computes every
   reference answer in-process (untimed);
2. sets up the serving store and its server (empty directory -> every
   document stored -> one served view of each);
3. repeats, once per episode: a restart episode (``kill -9``, respawn,
   one view of each document) over an episode store, set up afresh a
   few times, evenly spaced; the next chunk of the schedule, served as
   a closed loop with one client on the serving server; and a catch-up
   episode (``WalShipper.ship`` per document ->
   ``StandbyStore.apply_frames``): of a fresh standby of the episode
   store, or, on ``hot_small_docs``, of a standby that follows the
   serving store, bootstrapped at set-up;
4. with ``--trace 1``, replays the same schedule in-process through each
   layer's public functions (see ``traced.py``) and writes the span
   summary to ``servebench/_out/``.

The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Every served script and view, every
recovered document and every standby log is checked against the
reference; each mismatch or error is a failed operation.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path

END_TO_END = {
    "setup_s": "s",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "read_p50_ms": "ms",
    "updates_per_s": "1/s",
    "wal_bytes_per_update": "bytes",
    "peak_rss_mb": "MiB",
    "restart_s": "s",
    "catchup_s": "s",
}


def percentile(values: "list[float]", q: int) -> float:
    """The *q*-th percentile, interpolated between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fmt(values: "list[float]") -> str:
    return " ".join(f"{value:.3f}" for value in values)


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool, checkout: Path,
        tamper=None) -> dict:
    """One benchmark run; returns the result object."""
    from schedules import build_plan
    from served import Bench, Samples, Tally, build_template, wal_bytes

    src = checkout / "src"
    work = checkout / "servebench" / "_work" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    plan = build_plan(workload, seed, seconds)
    bench = Bench(plan, src, work, tally, tamper=tamper)
    try:
        template = build_template(plan, work / "template") if plan.history else None
        # the references are long-lived: keep the collector off them, so
        # a collection during a timed client-side step stays small
        gc.collect()
        gc.freeze()
        # The serving store is set up first. The schedule is then served
        # in one chunk per episode, each after one restart episode over an
        # episode store and before one catch-up episode (of a fresh
        # standby of the episode store, or of the serving store's
        # follower), so every metric samples the whole run. Restarts
        # leave the store as it was, so episodes repeat over it; it is set
        # up afresh `setups` times, evenly spaced, and setup_s is the
        # median of every set-up.
        elapsed, serving, serving_root = bench.setup("serving", template)
        setup_s, restart_s, catchup_s = [elapsed], [], []
        wal_before = wal_bytes(serving_root)
        samples = Samples()
        follower = bench.follower(serving_root) if plan.shape.follow else None
        episodes = plan.shape.episodes
        setup_every = episodes // plan.shape.setups
        chunk = -(-len(plan.ops) // episodes)
        server = root = None
        with serving.client() as client:
            for rep in range(episodes):
                if rep % setup_every == 0:
                    if server is not None:
                        bench.retire(server)
                        shutil.rmtree(root.parent)
                    elapsed, server, root = bench.setup(f"episodes{rep}", template)
                    setup_s.append(elapsed)
                elapsed, server = bench.restart(server, root)
                restart_s.append(elapsed)
                bench.serve(client, plan.ops[rep * chunk:(rep + 1) * chunk], samples)
                catchup_s.append(
                    follower.catch_up() if follower is not None
                    else bench.catchup(root, root.parent / "standby")
                )
        print(f"episodes (s): setup {fmt(setup_s)}; restart {fmt(restart_s)}; "
              f"catch-up {fmt(catchup_s)}", file=sys.stderr)
        print(f"{bench.calibration.summary()}; raw update p50 "
              f"{percentile(samples.raw_update_ms, 50):.3f} ms, raw updates/s "
              f"{samples.acked / samples.raw_busy_s:.2f}", file=sys.stderr)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "update_p50_ms": percentile(samples.update_ms, 50),
            "update_p90_ms": percentile(samples.update_ms, 90),
            "read_p50_ms": percentile(samples.read_ms, 50),
            "updates_per_s": samples.acked / samples.busy_s,
            "wal_bytes_per_update": (wal_bytes(serving_root) - wal_before)
            / max(samples.acked, 1),
            "peak_rss_mb": serving.peak_rss_mb(),
            "restart_s": statistics.median(restart_s),
            "catchup_s": statistics.median(catchup_s),
        }
        bench.close()
        units = END_TO_END
        if trace:
            from traced import PER_LAYER, layer_metrics

            metrics = layer_metrics(
                plan, work / "traced", tally, template=template,
                calibration=bench.calibration,
                served_update_p50_ms=metrics["update_p50_ms"],
                out=checkout / "servebench" / "_out" / f"trace-{workload}-{seed}.json",
            )
            units = PER_LAYER
    finally:
        bench.close()
    shutil.rmtree(work, ignore_errors=True)
    for note in tally.notes:
        print(f"failed: {note}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = Path.cwd()
    src = checkout / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro sources under {src}; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    # one CPU for the client, the calibration and every server it spawns
    # (inherited): the calibration then measures the CPU the server runs
    # on, and the closed loop never runs client and server at once anyway
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a terminated run still stops and reaps its servers (run's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), checkout)
    for name, metric in result["metrics"].items():
        print(f"{name:32} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
