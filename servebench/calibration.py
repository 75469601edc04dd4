"""Box-speed calibration: every timed step is reported at a reference speed.

On a shared 2-core box the speed of Python code flips between a fast
and a slow state, about 1.8x apart, many times a second, and the share
of time spent in each drifts from run to run. Process CPU time tracks
wall time through it and no steal time is reported: execution itself
is slower. Raw medians of served round trips spread up to 35% between
runs of identical code.

A calibration unit is a small fixed workload of the same kind as the
served path (JSON encode and decode, a sort, dict and list building, a
recursive walk). A :class:`Clock` times each step of a measurement
between two calibration levels (the level after one step is the level
before the next; a level is the median of one or more units) and scales
the step by ``REFERENCE_S`` over their mean. The unit
uses only the interpreter and its standard library, never the program
under test, so a change to the program moves the measured times and not
the calibration. The client, the calibration and the served process
share one pinned CPU (see ``run.py``), so the units measure the CPU the
server runs on.
"""

from __future__ import annotations

import json
import statistics
import time

REFERENCE_S = 0.0003
"""Seconds one calibration unit takes at the reference speed (about the
fast state of a 2-vCPU Xeon VM). A step of ``t`` seconds measured between
units of ``u1`` and ``u2`` seconds is reported as
``t * REFERENCE_S / mean(u1, u2)``."""

UNIT_SHARE = 0.1
"""Calibration time after a step, as a share of the step: a long step
spans many speed flips, so it is followed by more units (their median
is its closing level), up to ``MAX_UNITS``."""

MAX_UNITS = 200
"""Cap on the units after one step: a 0.3 s step gets about 30 ms of them."""


def _tree(depth: int, fanout: int) -> list:
    if depth == 0:
        return ["leaf", depth]
    return ["node", depth, [_tree(depth - 1, fanout) for _ in range(fanout)]]


def _walk(node: list) -> int:
    if node[0] == "leaf":
        return 1
    return 1 + sum(_walk(kid) for kid in node[2])


class Calibration:
    """The calibration unit, and every unit time measured in a run."""

    def __init__(self) -> None:
        self._data = {
            f"k{i}": [i, f"v{i * 7919 % 1000:03d}" * 3, {"a": i, "b": [1, 2, 3]}]
            for i in range(100)
        }
        self._tree = _tree(4, 3)
        self.units: "list[float]" = []

    def _unit(self) -> int:
        decoded = json.loads(json.dumps(self._data))
        groups: "dict[str, list]" = {}
        for text, key in sorted((v[1], k) for k, v in decoded.items()):
            groups.setdefault(text[:2], []).append(key)
        return len(groups) + _walk(self._tree)

    def unit_time(self) -> float:
        """Seconds one calibration unit takes now."""
        start = time.perf_counter()
        self._unit()
        elapsed = time.perf_counter() - start
        self.units.append(elapsed)
        return elapsed

    def summary(self) -> str:
        units = sorted(self.units)
        return (
            f"calibration unit: median {statistics.median(units) * 1e3:.3f} ms, "
            f"p10..p90 {units[len(units) // 10] * 1e3:.3f}.."
            f"{units[len(units) * 9 // 10] * 1e3:.3f} ms over {len(units)} units"
        )


class Clock:
    """Times a sequence of steps, each between two calibration levels.

    ``last`` and ``seconds`` are at the reference speed (the last step,
    and every step so far); ``last_raw`` and ``raw`` are as measured.
    """

    def __init__(self, calibration: Calibration) -> None:
        self._calibration = calibration
        self._before: "float | None" = None
        self.last = self.last_raw = self.seconds = self.raw = 0.0

    def step(self, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one timed step; returns its result."""
        if self._before is None:
            self._before = self._calibration.unit_time()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        units = min(MAX_UNITS, 1 + int(UNIT_SHARE * elapsed / self._before))
        after = statistics.median(self._calibration.unit_time() for _ in range(units))
        self.last_raw = elapsed
        self.last = elapsed * REFERENCE_S * 2.0 / (self._before + after)
        self._before = after
        self.seconds += self.last
        self.raw += elapsed
        return result
