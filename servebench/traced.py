"""The traced run: the served schedule replayed in-process, layer by layer.

Each scheduled request is replayed through the public functions the
served path calls, each call wrapped in a span recorded here, in the
benchmark (the program itself gets no new spans):

    request
      protocol.codec   encode_message / decode_messages, request and answer
      editing.parse    EditScript.parse of the update term
      session.propagate  DurableSession.propagate
        engine.propagate   the engine stages, read from repro.obs through
          validate, graphs, script      Tracer.stage_seconds() deltas
        session.journal    self: lease check, script emit and re-parse
          wal.append, fsync
      editing.emit     EditScript.to_term of the answer
      views.read       the served view rendered to its wire term

A span's self time is its duration minus its children's. The request
span's self time is what no layer span covers: ``unattributed_share``
is its share of the traced request time. The same replay runs once
with tracing off first; ``obs.overhead_share`` is how much slower the
traced replay was. After the replay the store is recovered, scanned,
shipped to a fresh standby and its schemas compiled and warmed from a
disk cache, each timed around the layer's public entry point.

Spans stay in memory until the run ends, then the per-layer summary is
written as JSON.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from pathlib import Path

from repro.cache import DiskCache
from repro.dtd import parse_dtd, serialize_dtd
from repro.editing import EditScript
from repro.obs import default_tracer
from repro.registry import EngineRegistry
from repro.replication import StandbyStore, WalShipper
from repro.replication.transport import ReplicationTransport, decode_frames, encode_frame
from repro.server.protocol import decode_messages, encode_message
from repro.store import DocumentStore
from repro.store.wal import scan_wal
from repro.views import Annotation
from repro.xmltree import tree_to_xml

from calibration import Calibration, Clock
from schedules import FSYNC, Plan

PER_LAYER = {
    "protocol.codec_ms": "ms",
    "editing.parse_ms": "ms",
    "editing.emit_ms": "ms",
    "server.overhead_ms": "ms",
    "store.append_ms": "ms",
    "store.journal_ms": "ms",
    "store.syncs_per_update": "count",
    "session.propagate_ms": "ms",
    "session.advance_ms": "ms",
    "engine.graphs_ms": "ms",
    "engine.validate_ms": "ms",
    "engine.script_ms": "ms",
    "views.read_ms": "ms",
    "store.recover_ms_per_record": "ms",
    "store.scan_mb_per_s": "MB/s",
    "registry.compile_ms": "ms",
    "cache.disk_warm_ms": "ms",
    "cache.hit_ratio": "ratio",
    "replication.ship_ms_per_record": "ms",
    "replication.apply_ms_per_record": "ms",
    "replication.decode_mb_per_s": "MB/s",
    "obs.overhead_share": "share",
    "unattributed_share": "share",
}

# repro.obs stages read around DurableSession.propagate: (stage, parent)
_OBS_STAGES = (
    ("engine.propagate", None),
    ("validate", "engine.propagate"),
    ("graphs", "engine.propagate"),
    ("script", "engine.propagate"),
    ("session.journal", None),
    ("wal.append", "session.journal"),
    ("fsync", "session.journal"),
)


class Spans:
    """In-memory spans: ``[name, parent index, seconds]`` per record."""

    def __init__(self) -> None:
        self.records: "list[list]" = []
        self._stack: "list[int]" = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def add(self, name: str, seconds: float, parent: "int | None") -> int:
        """Record a span measured elsewhere (an obs stage) under *parent*."""
        self.records.append([name, parent, seconds])
        return len(self.records) - 1

    @property
    def current(self) -> "int | None":
        return self._stack[-1] if self._stack else None

    def summary(self) -> "dict[str, dict]":
        """Per span name: count, total and self milliseconds."""
        covered = [0.0] * len(self.records)
        for name, parent, seconds in self.records:
            if parent is not None:
                covered[parent] += seconds
        layers: "dict[str, dict]" = {}
        for (name, _, seconds), children in zip(self.records, covered):
            layer = layers.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            layer["count"] += 1
            layer["total_ms"] += seconds * 1000.0
            layer["self_ms"] += (seconds - children) * 1000.0
        return layers


class _Span:
    __slots__ = ("_spans", "_name", "_index", "_t0")

    def __init__(self, spans: Spans, name: str) -> None:
        self._spans = spans
        self._name = name

    def __enter__(self) -> int:
        spans = self._spans
        self._index = spans.add(self._name, 0.0, spans.current)
        spans._stack.append(self._index)
        self._t0 = time.perf_counter()
        return self._index

    def __exit__(self, *exc) -> None:
        self._spans.records[self._index][2] = time.perf_counter() - self._t0
        self._spans._stack.pop()


class _Off:
    """Tracing off: every span is the same do-nothing context."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        return None


class NoSpans:
    _OFF = _Off()

    def span(self, name: str) -> _Off:
        return self._OFF


class _Carrier(ReplicationTransport):
    """Keeps the encoded frames, so decoding can be timed on its own."""

    def __init__(self) -> None:
        self.chunks: "list[bytes]" = []

    def send(self, kind: str, payload: dict) -> None:
        self.chunks.append(encode_frame(kind, payload))


def _fresh_store(plan: Plan, base: Path, template: "Path | None") -> Path:
    """The store as the served set-up leaves it, at *base*/store."""
    if template is not None:
        shutil.copytree(template / "store", base / "store")
        return base / "store"
    store = DocumentStore.init(base / "store", fsync=FSYNC)
    for doc in plan.docs:
        store.put(doc.doc_id, doc.source, doc.dtd, doc.annotation)
    store.close()
    return base / "store"


def replay(plan: Plan, root: Path, spans, tally, clock: Clock, stages: bool) -> dict:
    """The schedule through each layer's public function, each request
    one *clock* step (calibration units fall between requests, outside
    every span); returns the in-process ``DurableSession.propagate``
    times at the reference speed and the fsyncs the logs made."""
    store = DocumentStore(root, fsync=FSYNC)
    sessions = {doc.doc_id: store.open_session(doc.doc_id) for doc in plan.docs}
    for durable in sessions.values():
        durable.engine.warm_up()  # compile outside the timed replay
    tracer = default_tracer()
    span = spans.span

    def handle(op) -> "tuple[str, float]":
        durable = sessions[op.doc_id]
        propagate_s = 0.0
        with span("request"):
            if op.kind == "propagate":
                request = {"op": "propagate", "doc": op.doc_id, "update": op.term}
            else:
                request = {"op": "view", "doc": op.doc_id}
            with span("protocol.codec"):
                wire = encode_message(request)
            with span("protocol.codec"):
                request = decode_messages(wire)[0][0]
            if op.kind == "propagate":
                with span("editing.parse"):
                    update = EditScript.parse(request["update"])
                before = tracer.stage_seconds() if stages else None
                with span("session.propagate") as index:
                    start = time.perf_counter()
                    script = durable.propagate(update)
                    propagate_s = time.perf_counter() - start
                if stages:
                    _add_stages(spans, index, before, tracer.stage_seconds())
                with span("editing.emit"):
                    answer = script.to_term()
                result = {"doc": op.doc_id, "seq": durable.last_seq,
                          "cost": script.cost, "script": answer}
            else:
                with span("views.read"):
                    answer = tree_to_xml(durable.view)
                result = {"doc": op.doc_id, "served_by": "primary", "lag": 0,
                          "view": answer}
            with span("protocol.codec"):
                wire = encode_message({"ok": True, "result": result})
            with span("protocol.codec"):
                decode_messages(wire)
        return answer, propagate_s

    propagate_ms: "list[float]" = []
    try:
        for op in plan.ops:
            answer, propagate_s = clock.step(handle, op)
            if op.kind == "propagate":
                propagate_ms.append(propagate_s * 1000.0 * clock.last / clock.last_raw)
            tally.check(answer == op.expected, f"traced {op.kind} {op.doc_id}: wrong answer")
        syncs = sum(durable.stats["wal_syncs"] for durable in sessions.values())
    finally:
        for durable in sessions.values():
            durable.close()
        store.close()
    return {"propagate_ms": propagate_ms, "syncs": syncs}


def _add_stages(spans: Spans, parent: int, before: dict, after: dict) -> None:
    index = {}
    for stage, under in _OBS_STAGES:
        count, total = after.get(stage, (0, 0.0))
        old_count, old_total = before.get(stage, (0, 0.0))
        if count > old_count:
            index[stage] = spans.add(
                stage, total - old_total, parent if under is None else index[under]
            )


def _store_layers(plan: Plan, root: Path, work: Path, calibration: Calibration, tally) -> dict:
    """Recovery, log scan, compile, disk-cache warm and catch-up, each a
    clock step around the layer's public entry point (milliseconds at
    the reference speed)."""
    clock = Clock(calibration)

    def ms(fn, *args, **kwargs):
        result = clock.step(fn, *args, **kwargs)
        return result, clock.last * 1000.0

    store = DocumentStore(root, fsync=FSYNC)
    records, recover_ms = 0, 0.0
    for doc in plan.docs:
        recovered, elapsed = ms(store.recover, doc.doc_id, repair=False)
        records += recovered.replayed
        recover_ms += elapsed
        tally.check(recovered.tree == plan.final_sources[doc.doc_id],
                    f"traced recover {doc.doc_id}: differs from reference")
    wals = [root / "docs" / doc.doc_id / "wal.log" for doc in plan.docs]
    scan_ms = sum(ms(scan_wal, wal)[1] for wal in wals)
    wal_mb = sum(wal.stat().st_size for wal in wals) / 1e6

    schemas = {doc.family: doc for doc in plan.docs}
    # cold: schema objects parsed afresh, as a restarted process reads them
    texts = [(serialize_dtd(d.dtd), d.annotation.serialize()) for d in schemas.values()]
    compile_ms = sum(
        ms(lambda: EngineRegistry().get_or_compile(
            parse_dtd(dtd_text), Annotation.parse(annotation_text), warm=True))[1]
        for dtd_text, annotation_text in texts
    )
    seeding = EngineRegistry().attach_disk_tier(DiskCache(work / "cache"))
    for doc in schemas.values():
        seeding.get_or_compile(doc.dtd, doc.annotation, warm=True)
    disk = DiskCache(work / "cache")
    registry = EngineRegistry().attach_disk_tier(disk)
    warmed, warm_ms = ms(disk.warm, registry)
    tally.check(warmed == len(schemas), "disk cache warmed fewer engines than schemas")
    warm_store = DocumentStore(root, fsync=FSYNC, registry=registry)
    for doc in plan.docs:
        warm_store.open_session(doc.doc_id).close()
    warm_store.close()
    registry_stats, disk_stats = registry.stats, disk.stats
    hits = registry_stats.hits + disk_stats.hits
    lookups = hits + registry_stats.misses + disk_stats.misses

    standby_root = work / "standby"
    standby = StandbyStore.init(standby_root, primary_root=root, fsync=FSYNC)
    carrier = _Carrier()
    shipped, ship_ms = ms(WalShipper(store, carrier).resume_from(standby).ship_all)
    data = b"".join(carrier.chunks)
    (frames, _), decode_ms = ms(decode_frames, data)
    _, apply_ms = ms(standby.apply_frames, frames)
    standby.close()
    store.close()
    for wal in wals:
        copy = standby_root / wal.relative_to(root)
        tally.check(copy.read_bytes() == wal.read_bytes(),
                    f"traced catch-up {wal.parent.name}: standby WAL differs")
    return {
        "store.recover_ms_per_record": recover_ms / max(records, 1),
        "store.scan_mb_per_s": wal_mb / (scan_ms / 1000.0),
        "registry.compile_ms": compile_ms / len(schemas),
        "cache.disk_warm_ms": warm_ms / max(warmed, 1),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "replication.ship_ms_per_record": ship_ms / shipped,
        "replication.apply_ms_per_record": apply_ms / len(frames),
        "replication.decode_mb_per_s": len(data) / 1e6 / (decode_ms / 1000.0),
    }


def layer_metrics(plan: Plan, work: Path, tally, *, template: "Path | None",
                  calibration: Calibration, served_update_p50_ms: float, out: Path) -> dict:
    """Run the untraced and traced replays and the store-layer probes;
    write the span summary to *out*; return the per-layer metrics.

    Every time is at the reference speed (``calibration.py``): span
    times of the traced replay are scaled by its clock's overall factor."""
    work.mkdir(parents=True)
    plain_clock = Clock(calibration)
    plain = replay(plan, _fresh_store(plan, work / "plain", template), NoSpans(), tally,
                   plain_clock, stages=False)
    tracer = default_tracer()
    spans = Spans()
    traced_clock = Clock(calibration)
    tracer.configure(enabled=True, sample_rate=0.0, slow_threshold=1e9)
    try:
        traced = replay(plan, _fresh_store(plan, work / "traced", template), spans, tally,
                        traced_clock, stages=True)
    finally:
        tracer.configure(enabled=False)
    scale = traced_clock.seconds / traced_clock.raw
    layers = spans.summary()
    for layer in layers.values():
        layer["total_ms"] *= scale
        layer["self_ms"] *= scale
    store_metrics = _store_layers(plan, work / "traced" / "store", work, calibration, tally)

    updates = max(plan.updates, 1)
    reads = max(len(plan.ops) - plan.updates, 1)

    def self_ms(name: str, per: int) -> float:
        return layers.get(name, {"self_ms": 0.0})["self_ms"] / per

    def total_ms(name: str, per: int) -> float:
        return layers.get(name, {"total_ms": 0.0})["total_ms"] / per

    request_ms = layers["request"]["total_ms"]
    metrics = {
        "protocol.codec_ms": self_ms("protocol.codec", len(plan.ops)),
        "editing.parse_ms": self_ms("editing.parse", updates),
        "editing.emit_ms": self_ms("editing.emit", updates),
        "server.overhead_ms": served_update_p50_ms - statistics.median(plain["propagate_ms"]),
        "store.append_ms": total_ms("wal.append", updates) + total_ms("fsync", updates),
        "store.journal_ms": self_ms("session.journal", updates),
        "store.syncs_per_update": traced["syncs"] / updates,
        "session.propagate_ms": total_ms("session.propagate", updates),
        "session.advance_ms": self_ms("session.propagate", updates),
        "engine.graphs_ms": total_ms("graphs", updates),
        "engine.validate_ms": total_ms("validate", updates),
        "engine.script_ms": total_ms("script", updates),
        "views.read_ms": self_ms("views.read", reads),
        **store_metrics,
        "obs.overhead_share": traced_clock.seconds / plain_clock.seconds - 1.0,
        "unattributed_share": layers["request"]["self_ms"] / request_ms,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "workload": plan.workload,
        "seed": plan.seed,
        "requests": len(plan.ops),
        "updates": plan.updates,
        "time_unit": "ms at the reference speed (see calibration.py)",
        "traced_request_ms": request_ms,
        "unattributed_share": metrics["unattributed_share"],
        "tracing_overhead_share": metrics["obs.overhead_share"],
        "untraced_replay_s": plain_clock.seconds,
        "traced_replay_s": traced_clock.seconds,
        "layers": layers,
        "metrics": metrics,
    }, indent=1, sort_keys=True))
    return metrics
