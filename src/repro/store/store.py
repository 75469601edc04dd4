"""The durable document store: sessions that survive restarts.

A :class:`DocumentStore` persists documents beneath the serving tier.
Each stored document owns a directory::

    <root>/store.json                    store marker + format version
    <root>/docs/<doc_id>/
        meta.json                        doc id + canonical schema hash
        schema.dtd                       <!ELEMENT ...> declarations
        schema.ann                       annotation directives
        wal.log                          append-only edit-script log
        snapshots/<seq>.snap             checkpoints of the tree

The durable unit is the **translated source edit script**, not the
materialized tree: propagation is deterministic and side-effect-free,
so replaying the log from the last snapshot reproduces the document —
and therefore its view — byte for byte. :meth:`DocumentStore.open_session`
returns a :class:`DurableSession` whose ``propagate()`` appends the
translated script to the write-ahead log *before* any in-memory cache
advances (a :class:`~repro.session.DocumentSession` journal hook), so a
crash between requests loses nothing that was acknowledged;
``compact()`` checkpoints the tree and trims the log behind it.

Recovery (:meth:`DocumentStore.recover`) is engine-free — it needs only
tree algebra: load the newest usable snapshot, replay the log tail
through edit-script application, truncate a torn final record, and
raise a typed error (:class:`~repro.errors.WALCorruptError`,
:class:`~repro.errors.RecoveryError`) when the history itself is
damaged. Opening a session re-validates the schema fingerprint, so a
document can never be served through an engine compiled for a different
``(DTD, Annotation)`` (:class:`~repro.errors.StoreSchemaMismatchError`).
"""

from __future__ import annotations

import json
import re
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from ..dtd import DTD, parse_dtd, serialize_dtd
from ..editing import EditScript, round_trip_term
from ..errors import (
    DocumentExistsError,
    RecoveryError,
    ScriptError,
    SnapshotCorruptError,
    StaleSessionError,
    StoreError,
    StoreSchemaMismatchError,
    TreeError,
    UnknownDocumentError,
)
from ..obs import span as _span
from ..registry import EngineRegistry, default_registry, schema_fingerprint
from ..views import Annotation
from ..xmltree import Tree
from .lease import (
    Lease,
    acquire_lease,
    lease_path,
    owner_token,
    read_lease,
    release_lease,
    verify_lease,
)
from .snapshot import Snapshot, list_snapshots, read_snapshot, write_snapshot
from .wal import (
    FSYNC_POLICIES,
    GroupCommitCoordinator,
    WalScan,
    WalWriter,
    create_wal,
    rewrite_wal,
    scan_wal,
    truncate_torn_tail,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import ViewEngine
    from ..session import DocumentSession

__all__ = [
    "DocumentStore",
    "DurableSession",
    "RecoveredDocument",
    "TimeTravelView",
]

def _write_file(path: Path, text: str) -> None:
    """Atomic, fsynced small-file write (schema files, metadata): after a
    crash the file is either absent, the old version, or the new one —
    never a partial write that would brick an otherwise intact document."""
    import os

    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


_STORE_MARKER = "store.json"
_STORE_FORMAT = 1
_DOC_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}")
_META = "meta.json"
_DTD_FILE = "schema.dtd"
_ANN_FILE = "schema.ann"
_WAL_FILE = "wal.log"
_SNAP_DIR = "snapshots"


@dataclass(frozen=True)
class RecoveredDocument:
    """What :meth:`DocumentStore.recover` reconstructed."""

    doc_id: str
    tree: Tree
    """The document after snapshot + log tail."""

    snapshot_seq: int
    """Sequence number of the checkpoint recovery started from."""

    last_seq: int
    """Sequence number the reconstructed tree reflects: the last durable
    log record for a full recovery, the requested target for a
    point-in-time recovery (``upto_seq=``)."""

    replayed: int
    """Log records applied on top of the snapshot."""

    truncated_tail: bool
    """Whether a torn final record was cut off the log."""


@dataclass(frozen=True)
class TimeTravelView:
    """A read-only reconstruction of one historic document state
    (:meth:`DocumentStore.time_travel`): the source and its view exactly
    as they stood after log record *seq* was acknowledged."""

    doc_id: str

    seq: int
    """The historic sequence number this object reconstructs."""

    tree: Tree
    """The source document after records ``1..seq``."""

    view: Tree
    """``A(tree)`` under the document's stored annotation."""

    snapshot_seq: int
    """Checkpoint the reconstruction replayed from."""

    replayed: int
    """Log records applied on top of that checkpoint."""


class DocumentStore:
    """A directory of durable documents (see the module docstring).

    Parameters
    ----------
    root:
        The store directory. Must already be initialised unless
        *create* is true (:meth:`init` is the explicit spelling).
    fsync:
        Default log-append durability policy for sessions opened from
        this store: ``"always"`` (fsync per record), ``"batch"`` (every
        *batch_interval* records and on close/compact), or ``"off"``.
    registry:
        The :class:`~repro.registry.EngineRegistry` sessions compile
        their engines through — recovery of many documents under one
        schema reuses one compiled engine. Defaults to the process-wide
        registry.
    keep_snapshots:
        Checkpoints retained per document after compaction (the newest
        one is always kept).
    group_commit:
        Coalesce concurrent sessions' ``batch``-policy fsyncs through a
        store-wide :class:`~repro.store.wal.GroupCommitCoordinator`: one
        flush pass per *group_window* seconds makes every dirty log
        durable, instead of each session stalling on its own interval
        fsync. Durability stays ``batch``-grade (bounded loss on power
        failure, none on process crash).
    """

    def __init__(
        self,
        root: "Path | str",
        *,
        create: bool = False,
        fsync: str = "always",
        batch_interval: int = 8,
        keep_snapshots: int = 2,
        registry: "EngineRegistry | None" = None,
        group_commit: bool = False,
        group_window: float = 0.002,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise StoreError(
                f"unknown fsync policy {fsync!r}; pick one of {FSYNC_POLICIES}"
            )
        if keep_snapshots < 1:
            raise StoreError("keep_snapshots must be at least 1")
        self._root = Path(root)
        self._fsync = fsync
        self._batch_interval = batch_interval
        self._keep_snapshots = keep_snapshots
        self._coordinator = (
            GroupCommitCoordinator(group_window) if group_commit else None
        )
        self._registry = registry if registry is not None else default_registry()
        self._append_listeners: "list" = []
        marker = self._root / _STORE_MARKER
        if not marker.is_file():
            if not create:
                raise StoreError(
                    f"{self._root} is not a document store (no {_STORE_MARKER}); "
                    "initialise one with DocumentStore.init(...)"
                )
            (self._root / "docs").mkdir(parents=True, exist_ok=True)
            marker.write_text(
                json.dumps({"format": _STORE_FORMAT}, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        else:
            header = json.loads(marker.read_text(encoding="utf-8"))
            if header.get("format") != _STORE_FORMAT:
                raise StoreError(
                    f"store format {header.get('format')!r} is not supported "
                    f"(this library writes format {_STORE_FORMAT})"
                )

    @classmethod
    def init(cls, root: "Path | str", **kwargs) -> "DocumentStore":
        """Create (or open) the store directory at *root*."""
        return cls(root, create=True, **kwargs)

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    @property
    def root(self) -> Path:
        return self._root

    @property
    def fsync(self) -> str:
        """The default append-durability policy for sessions."""
        return self._fsync

    @property
    def registry(self) -> EngineRegistry:
        return self._registry

    @property
    def group_commit(self) -> "GroupCommitCoordinator | None":
        """The shared fsync coordinator, or ``None`` when group commit
        is off."""
        return self._coordinator

    def close(self) -> None:
        """Flush and stop the group-commit coordinator (no-op otherwise).

        Sessions opened from the store keep working — their logs just
        fall back to synchronous interval fsyncs on close. A store that
        is dropped *without* ``close()`` does not leak: the coordinator's
        flusher thread sheds itself after a few idle seconds. The store
        is also a context manager (``with DocumentStore.init(...) as
        store:``) closing on exit."""
        if self._coordinator is not None:
            self._coordinator.close()

    def __enter__(self) -> "DocumentStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Append notifications
    # ------------------------------------------------------------------

    def on_append(self, callback) -> "callable":
        """Register ``callback(doc_id, seq)`` to fire after every WAL
        append through this store handle (same process, same handle — a
        follower in another process still needs its poll fallback).

        The record is already durable per the session's fsync policy when
        the callback runs, so a shipper woken by it will find the bytes
        on disk. Returns an unsubscribe callable. Listener exceptions are
        swallowed: a broken wake-up must never fail a committed write.
        """
        self._append_listeners.append(callback)

        def unsubscribe() -> None:
            try:
                self._append_listeners.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def _notify_append(self, doc_id: str, seq: int) -> None:
        for callback in list(self._append_listeners):
            try:
                callback(doc_id, seq)
            except Exception:  # noqa: BLE001 - wake-ups are best-effort
                pass

    def _doc_dir(self, doc_id: str) -> Path:
        return self._root / "docs" / doc_id

    def _require_doc(self, doc_id: str) -> Path:
        directory = self._doc_dir(doc_id)
        if not (directory / _META).is_file():
            raise UnknownDocumentError(doc_id)
        return directory

    def documents(self) -> "list[str]":
        """Stored document identifiers, sorted."""
        docs = self._root / "docs"
        if not docs.is_dir():
            return []
        return sorted(
            entry.name
            for entry in docs.iterdir()
            if (entry / _META).is_file()
        )

    def exists(self, doc_id: str) -> bool:
        return (self._doc_dir(doc_id) / _META).is_file()

    # ------------------------------------------------------------------
    # Writing documents
    # ------------------------------------------------------------------

    def put(
        self,
        doc_id: str,
        source: Tree,
        dtd: DTD,
        annotation: Annotation,
        *,
        validate: bool = True,
        overwrite: bool = False,
    ) -> str:
        """Store *source* under *doc_id*; returns the schema hash.

        Writes the schema files, a genesis snapshot at sequence 0, and an
        empty log — all before ``meta.json``, whose presence is what
        makes the document visible, so a crash mid-``put`` leaves no
        half-document behind.
        """
        if not _DOC_ID_RE.fullmatch(doc_id):
            raise StoreError(
                f"document id {doc_id!r} is not filesystem-safe "
                "(letters, digits, dot, dash, underscore; max 128 chars)"
            )
        directory = self._doc_dir(doc_id)
        if (directory / _META).is_file():
            if not overwrite:
                raise DocumentExistsError(
                    f"document {doc_id!r} already exists (pass overwrite=True "
                    "to replace it and discard its history)"
                )
            shutil.rmtree(directory)
        if validate:
            dtd.assert_valid(source)
        schema_hash = schema_fingerprint(dtd, annotation)
        directory.mkdir(parents=True, exist_ok=True)
        _write_file(directory / _DTD_FILE, serialize_dtd(dtd) + "\n")
        _write_file(directory / _ANN_FILE, annotation.serialize() + "\n")
        write_snapshot(
            directory / _SNAP_DIR, source, seq=0, schema_hash=schema_hash
        )
        create_wal(directory / _WAL_FILE, base_seq=0)
        _write_file(
            directory / _META,
            json.dumps(
                {"format": _STORE_FORMAT, "doc_id": doc_id, "schema": schema_hash},
                sort_keys=True,
            )
            + "\n",
        )
        return schema_hash

    # ------------------------------------------------------------------
    # Reading documents back
    # ------------------------------------------------------------------

    def meta(self, doc_id: str) -> dict:
        directory = self._require_doc(doc_id)
        return json.loads((directory / _META).read_text(encoding="utf-8"))

    def schema(self, doc_id: str) -> "tuple[DTD, Annotation]":
        """The stored ``(DTD, Annotation)``, parsed from the schema files
        and verified against the recorded fingerprint."""
        directory = self._require_doc(doc_id)
        dtd = parse_dtd((directory / _DTD_FILE).read_text(encoding="utf-8"))
        annotation = Annotation.parse(
            (directory / _ANN_FILE).read_text(encoding="utf-8")
        )
        recorded = self.meta(doc_id)["schema"]
        actual = schema_fingerprint(dtd, annotation)
        if actual != recorded:
            raise StoreSchemaMismatchError(
                f"document {doc_id!r}: schema files hash to {actual[:12]}… "
                f"but the document was stored under {recorded[:12]}… — the "
                "schema files were edited after the fact"
            )
        return dtd, annotation

    def _recovery_plan(
        self, doc_id: str, *, repair: bool = True, upto_seq: "int | None" = None
    ) -> "tuple[Snapshot, list[EditScript], WalScan, bool]":
        """The shared first half of recovery: scan the log, pick the
        newest usable snapshot, parse the tail scripts past it, truncate
        a torn final record when *repair* (default; pass ``False`` for a
        read-only audit). With *upto_seq*, plan a point-in-time
        reconstruction instead: the snapshot must sit at or before the
        target and only records up to it are replayed. Returns
        (snapshot, tail scripts, scan, truncated)."""
        directory = self._require_doc(doc_id)
        schema_hash = self.meta(doc_id)["schema"]
        scan = scan_wal(directory / _WAL_FILE)
        if upto_seq is not None:
            if upto_seq < 0:
                raise StoreError(
                    f"upto_seq must be a sequence number, got {upto_seq}"
                )
            if upto_seq > scan.last_seq:
                raise RecoveryError(
                    f"document {doc_id!r}: cannot recover to seq {upto_seq} "
                    f"— the durable log only reaches {scan.last_seq}"
                )
        snapshot = self._usable_snapshot(
            doc_id, directory, scan, schema_hash, max_seq=upto_seq
        )
        if snapshot.seq > scan.last_seq:
            raise RecoveryError(
                f"document {doc_id!r}: snapshot {snapshot.seq} is ahead of "
                f"the log (last durable record is {scan.last_seq}) — records "
                "the snapshot supposedly covers are missing"
            )
        scripts: "list[EditScript]" = []
        for record in scan.records:
            if record.seq <= snapshot.seq:
                continue
            if upto_seq is not None and record.seq > upto_seq:
                break
            try:
                scripts.append(EditScript.parse(record.text))
            except (ScriptError, TreeError) as error:
                raise RecoveryError(
                    f"document {doc_id!r}: log record {record.seq} is not "
                    f"an edit script ({error})"
                ) from error
        truncated = False
        if repair and scan.torn_at is not None:
            truncated = truncate_torn_tail(directory / _WAL_FILE, scan)
        return snapshot, scripts, scan, truncated

    def recover(
        self,
        doc_id: str,
        *,
        repair: bool = True,
        upto_seq: "int | None" = None,
    ) -> RecoveredDocument:
        """Reconstruct the document: newest usable snapshot + log tail.

        Pure tree algebra — no engine is compiled (``open_session``
        replays the same plan through a
        :class:`~repro.session.DocumentSession` instead, arriving with
        its caches warm). Interior log corruption raises
        :class:`~repro.errors.WALCorruptError`; an unusable snapshot
        chain, a log that does not reach the snapshot, or a record that
        does not apply raises :class:`~repro.errors.RecoveryError`.

        *upto_seq* is point-in-time recovery: reconstruct the document
        exactly as it stood after log record *upto_seq* was acknowledged
        (``upto_seq=0`` is the genesis state). The target must still be
        reachable — at or past a retained snapshot and at or before the
        last durable record; a target inside a compacted prefix (its
        snapshot pruned, its records trimmed) raises
        :class:`~repro.errors.RecoveryError`, because that history is
        genuinely gone.
        """
        snapshot, scripts, scan, truncated = self._recovery_plan(
            doc_id, repair=repair, upto_seq=upto_seq
        )
        tree = snapshot.tree
        for script in scripts:
            try:
                tree = script.apply_to(tree)
            except (ScriptError, TreeError) as error:
                raise RecoveryError(
                    f"document {doc_id!r}: log record does not apply to "
                    f"the recovered document state ({error})"
                ) from error
        return RecoveredDocument(
            doc_id=doc_id,
            tree=tree,
            snapshot_seq=snapshot.seq,
            last_seq=scan.last_seq if upto_seq is None else upto_seq,
            replayed=len(scripts),
            truncated_tail=truncated,
        )

    def time_travel(self, doc_id: str, seq: int) -> TimeTravelView:
        """A read-only view of the document as of log record *seq*.

        Point-in-time recovery packaged for reads: the source is rebuilt
        from the retained snapshot chain plus WAL replay (nothing on disk
        is modified — a torn tail is left for a real recovery to
        repair), and the view is extracted under the stored annotation.
        The same reachability rules as ``recover(upto_seq=seq)`` apply.
        """
        recovered = self.recover(doc_id, repair=False, upto_seq=seq)
        _, annotation = self.schema(doc_id)
        return TimeTravelView(
            doc_id=doc_id,
            seq=seq,
            tree=recovered.tree,
            view=annotation.view(recovered.tree),
            snapshot_seq=recovered.snapshot_seq,
            replayed=recovered.replayed,
        )

    def _usable_snapshot(
        self,
        doc_id: str,
        directory: Path,
        scan: WalScan,
        schema_hash: str,
        *,
        max_seq: "int | None" = None,
    ) -> Snapshot:
        """Newest snapshot that loads cleanly *and* the log can extend.

        A corrupt newer snapshot falls back to an older one only when the
        (possibly trimmed) log still starts at or before it; otherwise
        the history is genuinely gone and recovery must say so. With
        *max_seq* (point-in-time recovery), snapshots past the target are
        skipped — replay can only move forward.
        """
        problems: "list[str]" = []
        skipped_newer = 0
        for seq, path in reversed(list_snapshots(directory / _SNAP_DIR)):
            if max_seq is not None and seq > max_seq:
                skipped_newer += 1
                continue
            try:
                snapshot = read_snapshot(path, schema_hash=schema_hash)
            except SnapshotCorruptError as error:
                problems.append(str(error))
                continue
            if snapshot.seq != seq:
                problems.append(
                    f"{path.name}: header says seq {snapshot.seq}, "
                    f"file name says {seq}"
                )
                continue
            if scan.base_seq > snapshot.seq:
                problems.append(
                    f"{path.name}: log was trimmed to start after record "
                    f"{scan.base_seq}, past this snapshot"
                )
                continue
            return snapshot
        if max_seq is not None and skipped_newer and not problems:
            raise RecoveryError(
                f"document {doc_id!r}: seq {max_seq} lies inside the "
                "compacted prefix — every retained snapshot is newer than "
                f"the target and the records that led up to it were "
                "trimmed away (compaction keeps the last "
                f"{self._keep_snapshots} checkpoints; recover to "
                f"{scan.base_seq} or later, or keep more snapshots)"
            )
        detail = ("; ".join(problems)) or "no snapshot files found"
        target = "" if max_seq is None else f" at or before seq {max_seq}"
        raise RecoveryError(
            f"document {doc_id!r} has no usable snapshot{target}: {detail}"
        )

    def load(self, doc_id: str) -> Tree:
        """The recovered document tree (shorthand for
        :meth:`recover`\\ ``(...).tree``)."""
        return self.recover(doc_id).tree

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def _replay_session(
        self,
        doc_id: str,
        *,
        engine: "ViewEngine | None" = None,
        validate_source: bool = False,
    ) -> "tuple[ViewEngine, DocumentSession, RecoveredDocument]":
        """Recover *doc_id* through a warm :class:`DocumentSession`: pin
        the snapshot, advance it along each logged script — the session
        arrives with its view, size-table, and identifier caches already
        warm. Shared by :meth:`open_session` (which wraps the result in
        a write-ahead-logged :class:`DurableSession`) and the replica
        tier's read-only :class:`~repro.replication.ReplicaSession`."""
        recorded = self.meta(doc_id)["schema"]
        if engine is None:
            dtd, annotation = self.schema(doc_id)
            engine = self._registry.get_or_compile(dtd, annotation)
        elif engine.schema_hash != recorded:
            raise StoreSchemaMismatchError(
                f"document {doc_id!r} was stored under schema "
                f"{recorded[:12]}… but the given engine is compiled for "
                f"{engine.schema_hash[:12]}…"
            )
        snapshot, scripts, scan, truncated = self._recovery_plan(doc_id)
        session = engine.session(snapshot.tree, validate_source=validate_source)
        for script in scripts:
            try:
                session.apply_source_script(script)
            except StaleSessionError as error:
                raise RecoveryError(
                    f"document {doc_id!r}: log record does not apply to "
                    f"the recovered document state ({error})"
                ) from error
        recovered = RecoveredDocument(
            doc_id=doc_id,
            tree=session.source,
            snapshot_seq=snapshot.seq,
            last_seq=scan.last_seq,
            replayed=len(scripts),
            truncated_tail=truncated,
        )
        return engine, session, recovered

    def open_session(
        self,
        doc_id: str,
        *,
        engine: "ViewEngine | None" = None,
        fsync: "str | None" = None,
        batch_interval: "int | None" = None,
        validate_source: bool = False,
    ) -> "DurableSession":
        """Recover *doc_id* and open a durable session serving it.

        The engine is fetched from the store's registry for the stored
        schema (recovering many documents under one schema compiles
        once); a caller-provided *engine* must match the document's
        recorded schema hash, otherwise
        :class:`~repro.errors.StoreSchemaMismatchError` is raised —
        serving through the wrong view definition is never an option.

        *validate_source* re-validates the recovered tree against the
        DTD before serving (recovery already replays a history of
        schema-compliant propagations, so this is off by default).

        Opening also acquires the document's **write lease**
        (:mod:`repro.store.lease`): the lease epoch bumps, fencing any
        still-live previous writer at its next append; this session is in
        turn fenced if anyone — a later open, a promoted standby —
        acquires the lease after it.
        """
        engine, session, recovered = self._replay_session(
            doc_id, engine=engine, validate_source=validate_source
        )
        return DurableSession(
            self,
            engine,
            recovered,
            session=session,
            fsync=fsync if fsync is not None else self._fsync,
            batch_interval=(
                batch_interval if batch_interval is not None else self._batch_interval
            ),
            group_commit=self._coordinator,
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def compact(self, doc_id: str) -> int:
        """Checkpoint the recovered document and trim the log; returns
        the checkpoint's sequence number. Engine-free, crash-safe: the
        snapshot is published atomically before the log is rewritten."""
        recovered = self.recover(doc_id)
        self.checkpoint(doc_id, recovered.tree, recovered.last_seq)
        return recovered.last_seq

    def checkpoint(self, doc_id: str, tree: Tree, seq: int) -> None:
        """Publish *tree* as the snapshot at *seq*, prune old snapshots,
        and trim the log back to the **oldest snapshot still kept** — so
        every retained checkpoint stays a real recovery point (if the
        newest one rots, recovery falls back and replays further). The
        caller asserts ``tree`` is the document after log records
        ``1..seq`` — the store's own :meth:`compact` and
        :meth:`DurableSession.compact` are the two callers."""
        directory = self._require_doc(doc_id)
        schema_hash = self.meta(doc_id)["schema"]
        scan = scan_wal(directory / _WAL_FILE)
        write_snapshot(
            directory / _SNAP_DIR, tree, seq=seq, schema_hash=schema_hash
        )
        snapshots = list_snapshots(directory / _SNAP_DIR)
        for _, path in snapshots[: -self._keep_snapshots or None]:
            path.unlink(missing_ok=True)
        kept = [s for s, _ in snapshots[-self._keep_snapshots:]]
        # Records at or before the oldest kept snapshot are unreachable
        # by any recovery; everything after it stays. Rewrite-and-rename
        # keeps the crash window at zero: the old log plus the new
        # snapshot still recovers (records <= seq replay as no-ops).
        trim_to = max(min(kept), scan.base_seq)
        rewrite_wal(
            directory / _WAL_FILE,
            trim_to,
            [record for record in scan.records if record.seq > trim_to],
        )

    def stats(self, doc_id: "str | None" = None) -> dict:
        """JSON-serializable storage metrics — per document, or for the
        whole store when *doc_id* is ``None``."""
        if doc_id is None:
            payload = {
                "root": str(self._root),
                "fsync": self._fsync,
                "documents": [self.stats(one) for one in self.documents()],
            }
            if self._coordinator is not None:
                payload["group_commit"] = self._coordinator.stats()
            return payload
        directory = self._require_doc(doc_id)
        scan = scan_wal(directory / _WAL_FILE)
        snapshots = list_snapshots(directory / _SNAP_DIR)
        lease = read_lease(lease_path(directory))
        return {
            "doc_id": doc_id,
            "schema": self.meta(doc_id)["schema"],
            "wal_records": len(scan.records),
            "wal_base_seq": scan.base_seq,
            "wal_last_seq": scan.last_seq,
            "wal_bytes": (directory / _WAL_FILE).stat().st_size,
            "wal_torn_tail": scan.torn_at is not None,
            "snapshots": [seq for seq, _ in snapshots],
            "snapshot_bytes": sum(path.stat().st_size for _, path in snapshots),
            "lease": {"epoch": lease.epoch, "owner": lease.owner},
        }

    def __repr__(self) -> str:
        return f"DocumentStore({str(self._root)!r}, fsync={self._fsync!r})"


class DurableSession:
    """A :class:`~repro.session.DocumentSession` whose propagations are
    write-ahead logged.

    Construction recovers the document; every :meth:`propagate` then
    appends the translated source script to the log *before* the
    in-memory session advances (the journal hook raises → the session
    does not move → log and memory never disagree). Use as a context
    manager, or :meth:`close` explicitly, to flush a ``batch`` policy's
    pending fsync.

    Not thread-safe, like the session it wraps: one document stream per
    durable session.
    """

    def __init__(
        self,
        store: DocumentStore,
        engine: "ViewEngine",
        recovered: RecoveredDocument,
        *,
        fsync: str,
        batch_interval: int,
        session: "DocumentSession | None" = None,
        validate_source: bool = False,
        group_commit: "GroupCommitCoordinator | None" = None,
    ) -> None:
        self._store = store
        self._engine = engine
        self._recovered = recovered
        # Lease first, log second: once the epoch bump below is durable,
        # a still-live previous writer is fenced at its next append, so
        # the last_seq check that follows sees a quiescent log (modulo
        # one append already past its own lease check — the advisory
        # window documented in repro.store.lease).
        self._lease_path = lease_path(store._doc_dir(recovered.doc_id))
        self._lease: "Lease | None" = acquire_lease(
            self._lease_path, owner_token()
        )
        # The writer re-scans the log it is about to append to. That is
        # deliberate, not redundant: a record that appeared since the
        # recovery plan was read means a second writer is live.
        self._writer = WalWriter(
            store._doc_dir(recovered.doc_id) / _WAL_FILE,
            policy=fsync,
            batch_interval=batch_interval,
            group_commit=group_commit,
        )
        if self._writer.last_seq != recovered.last_seq:
            self._writer.close(final_sync=False)
            release_lease(self._lease_path, self._lease)
            raise StoreError(
                f"document {recovered.doc_id!r}: log advanced from "
                f"{recovered.last_seq} to {self._writer.last_seq} during "
                "open — another session is writing this document"
            )
        if session is None:
            session = engine.session(
                recovered.tree, validate_source=validate_source
            )
        # attach the journal only now — replay must never re-journal
        session.journal = self._journal
        self._session = session

    def _journal(self, update: EditScript, script: EditScript) -> None:
        with _span("session.journal", doc=self.doc_id):
            # Fencing check first: a writer that lost its lease (another
            # open, a promoted standby) must refuse *before* the record
            # lands, or the document's history forks.
            if self._lease is not None:
                verify_lease(self._lease_path, self._lease)
            # Append only what replay can read back: a document whose node
            # identifiers fall outside term notation (spaces, commas — XML
            # attributes allow them) must fail *here*, before the update is
            # acknowledged, not at recovery time.
            try:
                text = round_trip_term(script)
            except ScriptError as error:
                raise StoreError(
                    f"refusing to journal a propagation: {error}"
                ) from error
            self._writer.append(text)
        self._store._notify_append(self.doc_id, self._writer.last_seq)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def doc_id(self) -> str:
        return self._recovered.doc_id

    @property
    def engine(self) -> "ViewEngine":
        return self._engine

    @property
    def session(self) -> "DocumentSession":
        """The wrapped in-memory session. Mutating it behind the log
        (``rebase`` etc.) desynchronises durability — don't."""
        return self._session

    @property
    def source(self) -> Tree:
        return self._session.source

    @property
    def view(self) -> Tree:
        return self._session.view

    @property
    def last_seq(self) -> int:
        """Sequence number of the last durably logged propagation."""
        return self._writer.last_seq

    @property
    def recovered(self) -> RecoveredDocument:
        """How this session's document was reconstructed at open."""
        return self._recovered

    @property
    def lease(self) -> "Lease | None":
        """The write lease this session holds (``None`` after close)."""
        return self._lease

    @property
    def stats(self) -> dict:
        """JSON-serializable counters: the wrapped session's plus the
        log's."""
        return {
            "doc_id": self.doc_id,
            "fsync": self._writer.policy,
            "lease_epoch": self._lease.epoch if self._lease else None,
            "last_seq": self._writer.last_seq,
            "wal_appends": self._writer.appended,
            "wal_syncs": self._writer.syncs,
            "wal_pending": self._writer.pending,
            "recovered": {
                "snapshot_seq": self._recovered.snapshot_seq,
                "last_seq": self._recovered.last_seq,
                "replayed": self._recovered.replayed,
                "truncated_tail": self._recovered.truncated_tail,
            },
            "session": asdict(self._session.stats),
        }

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def propagate(self, update: EditScript, **kwargs) -> EditScript:
        """Serve one view update durably; parameters and result are
        exactly :meth:`repro.session.DocumentSession.propagate`.

        The translated script reaches the log before any cache advances;
        with ``advance=False`` (a preview) nothing is journalled.
        """
        return self._session.propagate(update, **kwargs)

    def serve(self, updates: Iterable[EditScript]) -> "list[EditScript]":
        """Serve a whole stream of sequential updates durably."""
        return [self.propagate(update) for update in updates]

    # ------------------------------------------------------------------
    # Durability controls
    # ------------------------------------------------------------------

    def sync(self) -> None:
        """Force pending log records to stable storage now (a ``batch``
        policy's explicit flush point)."""
        self._writer.sync()

    def compact(self) -> int:
        """Checkpoint the current document and trim the log; returns the
        checkpoint sequence number. The in-memory session keeps serving —
        only where recovery starts from changes."""
        if self._lease is not None:
            verify_lease(self._lease_path, self._lease)
        self._writer.sync()
        seq = self._writer.last_seq
        self._store.checkpoint(self.doc_id, self._session.source, seq)
        self._writer.reopen()
        return seq

    def close(self) -> None:
        """Flush pending records (per policy), release the log, and give
        the write lease back (a lease someone else already took over is
        left to its new holder)."""
        self._writer.close()
        if self._lease is not None:
            release_lease(self._lease_path, self._lease)
            self._lease = None

    def __enter__(self) -> "DurableSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DurableSession({self.doc_id!r}, last_seq={self.last_seq}, "
            f"fsync={self._writer.policy!r})"
        )
