"""The benchmark's own tests, at a tiny size.

    python3 -m pytest -q servebench/tests

Run from the root of the checkout. Each workload is shrunk (fewer and
smaller documents, a short history, one or two episodes) but keeps its
shape: a real served subprocess, a closed loop, every answer checked.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parents[2]
BENCH = CHECKOUT / "servebench"
sys.path[:0] = [str(CHECKOUT / "src"), str(BENCH)]

import run  # noqa: E402
import schedules  # noqa: E402
from traced import PER_LAYER  # noqa: E402

TINY = {
    "hot_small_docs": dict(
        docs=(("hot00", "wide24"), ("hot01", "wide24")), episodes=2, setups=1
    ),
    "big_doc_stream": dict(docs=(("book", "book400"),), episodes=1, setups=1),
    "restart_catchup": dict(
        docs=(("wide12-0", "wide12"), ("book400-0", "book400"), ("ward16-0", "ward16")),
        history_per_doc=3,
        episodes=2,
        setups=2,
    ),
}


@pytest.fixture
def tiny(monkeypatch):
    shapes = {
        name: dataclasses.replace(shape, **TINY[name])
        for name, shape in schedules.SHAPES.items()
    }
    monkeypatch.setattr(schedules, "SHAPES", shapes)


def bench(workload: str, seed: int = 3, trace: bool = False, tamper=None) -> dict:
    return run.run(workload, seed, 1.0, trace, CHECKOUT, tamper=tamper)


def spec() -> dict:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", schedules.WORKLOADS)
def test_every_workload_completes_without_failures(tiny, workload):
    result = bench(workload)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] > 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_wal_bytes_per_update_repeats_for_a_seed(tiny):
    first, second = bench("hot_small_docs", seed=5), bench("hot_small_docs", seed=5)
    assert first["attempted"] == second["attempted"]
    assert (first["metrics"]["wal_bytes_per_update"]["value"]
            == second["metrics"]["wal_bytes_per_update"]["value"])


def test_a_flipped_byte_in_a_served_script_is_a_failure(tiny):
    flipped = []

    def flip_first_script(field: str, value: str) -> str:
        if field != "script" or flipped:
            return value
        flipped.append(value)
        index = len(value) // 2
        return value[:index] + chr(ord(value[index]) ^ 1) + value[index + 1:]

    clean = bench("hot_small_docs")
    result = bench("hot_small_docs", tamper=flip_first_script)
    assert flipped, "no served script passed the checker"
    assert result["attempted"] == clean["attempted"]
    assert result["failed"] == 1 and not result["correct"]


def test_traced_run_reports_every_layer(tiny):
    result = bench("restart_catchup", trace=True)
    assert result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in spec()["per_layer"]} == set(PER_LAYER)
    assert 0.0 <= metrics["unattributed_share"] < 0.5
    assert metrics["cache.hit_ratio"] > 0
    out = json.loads((BENCH / "_out" / "trace-restart_catchup-3.json").read_text())
    layers = out["layers"]
    # self times add up to the traced request time
    request_tree = ("request", "protocol.codec", "editing.parse", "session.propagate",
                    "engine.propagate", "validate", "graphs", "script",
                    "session.journal", "wal.append", "editing.emit", "views.read")
    self_sum = sum(layers[name]["self_ms"] for name in request_tree if name in layers)
    assert self_sum == pytest.approx(out["traced_request_ms"], rel=1e-6)


def test_benchmark_json_follows_the_contract():
    data = spec()
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert data["paths"] == ["servebench"]
    assert [w["name"] for w in data["workloads"]] == list(schedules.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in data["workloads"])
    assert {m["name"]: m["unit"] for m in data["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in data["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])


def test_stripped_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "hot_small_docs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
