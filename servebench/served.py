"""The served side: a real ``repro-xml serve`` subprocess and one client.

The load is a closed loop with one client: each request waits for its
answer before the next is sent. Every answer is checked against the
plan's reference; a mismatch or an error counts as a failed operation.
"""

from __future__ import annotations

import os
import selectors
import shutil
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import ReproError
from repro.replication import QueueTransport, StandbyStore, WalShipper
from repro.server import ServeClient
from repro.store import DocumentStore

from calibration import Calibration, Clock
from schedules import FSYNC, Plan

SPAWN_TIMEOUT_S = 60.0


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: "list[str]" = []

    def check(self, ok: bool, note: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)
        return ok


class ServerProcess:
    """``python -m repro.cli serve`` over one store, on a free port."""

    def __init__(self, src: Path, root: Path, log: Path, cache_root: "Path | None") -> None:
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--root", str(root), "--port", "0", "--fsync", FSYNC,
        ]
        if cache_root is not None:
            argv += ["--cache-root", str(cache_root)]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, env=env
        )
        self.host, self.port = self._await_banner()

    def _await_banner(self) -> "tuple[str, int]":
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline().decode()
                if not line:
                    break
                if line.startswith("serving on "):
                    host, port = line.split()[-1].rsplit(":", 1)
                    return host, int(port)
        self.kill()
        raise RuntimeError("server did not start (see its log in the work directory)")

    def client(self) -> ServeClient:
        return ServeClient(self.host, self.port)

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM``: its peak resident set, in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def kill(self) -> None:
        """``kill -9`` and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close()

    def stop(self) -> None:
        """SIGTERM drain; ``kill -9`` if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._close()

    def _close(self) -> None:
        self.proc.stdout.close()
        self._log.close()


class Bench:
    """One run's served measurements over a work directory."""

    def __init__(self, plan: Plan, src: Path, work: Path, tally: Tally, tamper=None) -> None:
        self.plan = plan
        self.src = src
        self.work = work
        self.tally = tally
        #: test hook: ``tamper(field, value)`` rewrites a served answer
        #: (``field`` is ``"script"`` or ``"view"``) before it is checked
        self.tamper = tamper
        self.calibration = Calibration()
        self._servers: "list[ServerProcess]" = []
        self._follower: "Follower | None" = None

    # -- processes --------------------------------------------------------

    def spawn(self, root: Path) -> ServerProcess:
        cache = root.parent / "cache" if self.plan.shape.cache_root else None
        server = ServerProcess(self.src, root, self.work / "serve.log", cache)
        self._servers.append(server)
        return server

    def close(self) -> None:
        """Stop every server this run started, and wait for each."""
        if self._follower is not None:
            self._follower.close()
            self._follower = None
        for server in self._servers:
            server.stop()
        self._servers.clear()

    def retire(self, server: ServerProcess) -> None:
        """``kill -9`` one server and forget it."""
        server.kill()
        self._servers.remove(server)

    # -- checked requests -------------------------------------------------

    def _answer(self, field: str, result: dict) -> str:
        value = result.get(field, "")
        return self.tamper(field, value) if self.tamper is not None else value

    def request(self, client: ServeClient, op) -> bool:
        """Send one scheduled op and check its answer; the caller times it."""
        try:
            if op.kind == "propagate":
                got = self._answer("script", client.propagate(op.doc_id, op.term))
            else:
                got = self._answer("view", client.view(op.doc_id))
        except (ReproError, OSError) as error:
            return self.tally.check(False, f"{op.kind} {op.doc_id}: {error}")
        return self.tally.check(got == op.expected, f"{op.kind} {op.doc_id}: wrong answer")

    def view_all(self, server: ServerProcess, views: "dict[str, str]", clock: Clock) -> None:
        """Connect, then one checked ``view`` of every document, each a step."""
        with clock.step(server.client) as client:
            for doc_id, expected in views.items():
                try:
                    result = clock.step(client.view, doc_id)
                except (ReproError, OSError) as error:
                    self.tally.check(False, f"view {doc_id}: {error}")
                    continue
                self.tally.check(
                    self._answer("view", result) == expected, f"view {doc_id}: wrong view"
                )

    # -- episodes: each returns its time at the reference speed -----------

    def setup(self, name: str, template: "Path | None") -> "tuple[float, ServerProcess, Path]":
        """Empty directory -> every document stored -> one view of each
        answered. Documents are ``put`` fresh, or — for a workload whose
        documents carry a long history — copied from the frozen store."""
        base = self.work / name
        root = base / "store"
        clock = Clock(self.calibration)
        if template is not None:
            clock.step(shutil.copytree, template, base)
        else:
            store = clock.step(DocumentStore.init, root, fsync=FSYNC)
            for doc in self.plan.docs:
                clock.step(store.put, doc.doc_id, doc.source, doc.dtd, doc.annotation)
            clock.step(store.close)
        server = clock.step(self.spawn, root)
        self.view_all(server, self.plan.setup_views, clock)
        return clock.seconds, server, root

    def restart(self, server: ServerProcess, root: Path) -> "tuple[float, ServerProcess]":
        """``kill -9``, respawn, one view of every document; then check
        the recovered documents against the reference (untimed)."""
        clock = Clock(self.calibration)
        clock.step(self.retire, server)
        server = clock.step(self.spawn, root)
        self.view_all(server, self.plan.setup_views, clock)
        store = DocumentStore(root, fsync=FSYNC)
        try:
            for doc_id, expected in self.plan.setup_sources.items():
                try:
                    ok = store.recover(doc_id, repair=False).tree == expected
                except ReproError as error:
                    ok, doc_id = False, f"{doc_id}: {error}"
                self.tally.check(ok, f"recover {doc_id}: differs from reference")
        finally:
            store.close()
        return clock.seconds, server

    def catchup(self, root: Path, standby_root: Path) -> float:
        """Bootstrap a fresh standby and apply the primary's whole log —
        ``ship_all`` one document per step, each step's frames applied by
        ``apply_frames`` — then byte-compare the standby WALs with the
        primary's (untimed)."""
        clock = Clock(self.calibration)
        primary = clock.step(DocumentStore, root, fsync=FSYNC)
        standby = clock.step(StandbyStore.init, standby_root, primary_root=root, fsync=FSYNC)
        carrier = QueueTransport()
        shipper = clock.step(WalShipper(primary, carrier).resume_from, standby)
        ship_each(clock, primary, shipper, standby, carrier)
        standby.close()
        primary.close()
        self.check_standby(root, standby_root)
        shutil.rmtree(standby_root)
        return clock.seconds

    def follower(self, root: Path) -> "Follower":
        """A standby of the serving store at *root*, bootstrapped now
        (untimed) and closed with the run."""
        self._follower = Follower(self, root, root.parent / "standby")
        return self._follower

    def check_standby(self, root: Path, standby_root: Path) -> None:
        """Each standby ``wal.log`` must equal the primary's byte for byte."""
        for doc in self.plan.docs:
            wal = Path("docs") / doc.doc_id / "wal.log"
            try:
                same = (standby_root / wal).read_bytes() == (root / wal).read_bytes()
            except OSError:
                same = False
            self.tally.check(same, f"catch-up {doc.doc_id}: standby WAL differs")

    def serve(self, client: ServeClient, ops, samples: "Samples") -> None:
        """Serve *ops* in a closed loop, each round trip one clock step."""
        clock = Clock(self.calibration)
        for op in ops:
            ok = clock.step(self.request, client, op)
            samples.add(op.kind, clock, ok)


class Follower:
    """A standby that follows the serving store: bootstrapped once, then
    caught up with the writes served since, one catch-up episode each."""

    def __init__(self, bench: Bench, root: Path, standby_root: Path) -> None:
        self._bench = bench
        self._root = root
        self._standby_root = standby_root
        self._primary = DocumentStore(root, fsync=FSYNC)
        self._standby = StandbyStore.init(standby_root, primary_root=root, fsync=FSYNC)
        self._carrier = QueueTransport()
        self._shipper = WalShipper(self._primary, self._carrier).resume_from(self._standby)
        self.catch_up()

    def catch_up(self) -> float:
        """Ship and apply every record the standby lacks; then byte-compare
        the standby WALs with the primary's (untimed)."""
        clock = Clock(self._bench.calibration)
        ship_each(clock, self._primary, self._shipper, self._standby, self._carrier)
        self._bench.check_standby(self._root, self._standby_root)
        return clock.seconds

    def close(self) -> None:
        self._standby.close()
        self._primary.close()


class Samples:
    """The served schedule's round trips, at the reference speed."""

    def __init__(self) -> None:
        self.update_ms: "list[float]" = []
        self.read_ms: "list[float]" = []
        self.raw_update_ms: "list[float]" = []
        self.acked = 0
        self.busy_s = 0.0
        self.raw_busy_s = 0.0

    def add(self, kind: str, clock: Clock, ok: bool) -> None:
        if kind == "propagate":
            self.update_ms.append(clock.last * 1000.0)
            self.raw_update_ms.append(clock.last_raw * 1000.0)
            self.acked += ok
        else:
            self.read_ms.append(clock.last * 1000.0)
        self.busy_s += clock.last
        self.raw_busy_s += clock.last_raw


def ship_each(clock: Clock, primary, shipper, standby, carrier) -> None:
    """``WalShipper.ship`` one document per step, each step's frames
    applied by ``StandbyStore.apply_frames``."""

    def ship_and_apply(doc_id: str) -> None:
        shipper.ship(doc_id)
        standby.apply_frames(carrier.drain())

    for doc_id in clock.step(primary.documents):
        clock.step(ship_and_apply, doc_id)


def wal_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in (root / "docs").glob("*/wal.log"))


def build_template(plan: Plan, path: Path) -> Path:
    """A frozen store whose documents carry the plan's history, written
    through durable sessions (fsync off) with a persistent cache tier
    attached, so every copy restarts with warm compiled artifacts."""
    from repro.cache import DiskCache
    from repro.registry import EngineRegistry

    registry = EngineRegistry()
    registry.attach_disk_tier(DiskCache(path / "cache"))
    store = DocumentStore.init(path / "store", fsync=FSYNC, registry=registry)
    for doc in plan.docs:
        store.put(doc.doc_id, doc.source, doc.dtd, doc.annotation)
    sessions = {}
    try:
        for op in plan.history:
            durable = sessions.get(op.doc_id)
            if durable is None:
                durable = sessions[op.doc_id] = store.open_session(op.doc_id)
                durable.engine.warm_up()
            durable.session.advance_script(op.update, op.script)
    finally:
        for durable in sessions.values():
            durable.close()
        store.close()
    return path
