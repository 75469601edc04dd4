"""The write-ahead log: an append-only file of source edit scripts.

Propagation makes every view update a deterministic, side-effect-free
edit script over the source, so the translated script — not the
materialized tree — is the natural durable unit: replaying the log
against the last snapshot reproduces the document byte for byte.

.. code-block:: text

    WALv1 <base_seq>\\n                    # file header, written once
    R <seq> <length> <crc32>\\n            # one record header per append
    <length bytes of script term text>\\n  # e.g. Nop.r#n0(Del.a#n1, ...)

``base_seq`` is the absolute sequence number the log starts *after*;
sequence numbers never reset for the lifetime of a document. Damage
follows the WAL column of the :mod:`repro.framing` policy table: a torn
tail is reported via :attr:`WalScan.torn_at` for recovery to truncate,
and interior damage or a sequence gap raises
:class:`~repro.errors.WALCorruptError`.

:class:`WalWriter` is the append side, implementing the three fsync
policies of the store (``always`` / ``batch`` / ``off``).
:class:`GroupCommitCoordinator` coalesces the ``batch`` policy's fsyncs
*across* concurrent sessions: appends from every writer sharing the
coordinator are made durable by one flush pass per commit window
instead of one fsync per writer per interval.
"""

from __future__ import annotations

import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .. import framing
from ..errors import StoreError, WALCorruptError
from ..obs import child_span as _child_span

__all__ = [
    "WalRecord",
    "WalScan",
    "scan_wal",
    "scan_wal_tail",
    "create_wal",
    "rewrite_wal",
    "WalWriter",
    "GroupCommitCoordinator",
    "FSYNC_POLICIES",
]

_MAGIC = b"WALv1"
_HEADER_RE = re.compile(rb"WALv1 (\d+)")
RECORD_FORMAT = framing.Format(
    re.compile(rb"R (?P<seq>\d+) (?P<len>\d+) (?P<crc>\d+)"),
    "record",
    garbage_tail_torn=True,
    text=True,
)
"""WAL records; cache segment records share the format and its policy."""

FSYNC_POLICIES = ("always", "batch", "off")
"""When appends reach the platter: every record, every N records, never."""


@dataclass(frozen=True)
class WalRecord:
    """One durable record: the *seq*-th edit script of the document."""

    seq: int
    text: str


@dataclass(frozen=True)
class WalScan:
    """The result of reading a log file front to back."""

    base_seq: int
    """Sequence number the log starts after (its records are
    ``base_seq + 1 .. last_seq``)."""

    records: tuple[WalRecord, ...]
    """Every complete, checksummed record in order."""

    end_offset: int
    """Byte offset just past the last valid record — where the next
    append goes, and where a torn tail is truncated."""

    torn_at: "int | None"
    """Byte offset of an incomplete final record, ``None`` when the log
    ends cleanly."""

    @property
    def last_seq(self) -> int:
        """Sequence number of the last durable record."""
        return self.records[-1].seq if self.records else self.base_seq


def encode_record(seq: int, text: str) -> bytes:
    """The exact bytes :class:`WalWriter` appends for (*seq*, *text*)."""
    return framing.encode(f"R {seq}", text.encode("utf-8"))


def rewrite_wal(
    path: "Path | str", base_seq: int, records: "Iterable[WalRecord]" = ()
) -> None:
    """Atomically replace the log with one starting after *base_seq*
    carrying *records* (which must be contiguous from ``base_seq + 1``).

    Atomic (tmp + rename) and fsynced: compaction rewrites a live
    document's log through this — a crash mid-rewrite must leave either
    the old log or the new one, never a truncated file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(_MAGIC + f" {base_seq}\n".encode("ascii"))
        expected = base_seq + 1
        for record in records:
            if record.seq != expected:
                raise StoreError(
                    f"cannot rewrite log: record {record.seq} breaks the "
                    f"sequence at {expected}"
                )
            handle.write(encode_record(record.seq, record.text))
            expected += 1
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    framing.fsync_dir(path.parent)


def create_wal(path: "Path | str", base_seq: int = 0) -> None:
    """Write a fresh, empty log starting after *base_seq* (fsynced:
    creation must be durable whatever append policy follows)."""
    rewrite_wal(path, base_seq)


def _scan_records(
    data: bytes, pos: int, base_seq: int, name: str, shift: int = 0
) -> WalScan:
    """The records of *data* from byte *pos* on, numbered from
    ``base_seq + 1``; *shift* makes offsets absolute in a file's tail."""
    scan = framing.scan(data, RECORD_FORMAT, pos)
    records: list[WalRecord] = []
    expected = base_seq + 1
    for frame in scan.frames:
        seq = int(frame.header["seq"])
        if seq != expected:
            raise WALCorruptError(
                f"{name}: expected record {expected} at byte {shift + frame.offset}, "
                f"found {seq} — records are missing or reordered"
            )
        records.append(WalRecord(seq, frame.body))
        expected += 1
    if scan.damage == framing.CORRUPT:
        raise WALCorruptError(
            f"{name}: {scan.reason} at byte {shift + scan.end} with further "
            "data after it — interior corruption, refusing to replay past it"
        )
    end = shift + scan.end
    return WalScan(base_seq, tuple(records), end, end if scan.damage else None)


def scan_wal(path: "Path | str") -> WalScan:
    """Read the log; interior damage or a sequence gap raises
    :class:`WALCorruptError`, a torn tail is reported through
    :attr:`WalScan.torn_at` for the caller to truncate."""
    path = Path(path)
    data = path.read_bytes()
    newline = data.find(b"\n")
    header = _HEADER_RE.fullmatch(data[:newline]) if newline >= 0 else None
    if header is None:
        raise WALCorruptError(
            f"{path.name}: missing or malformed WAL header "
            "(the header is written and fsynced at creation; a bad one "
            "means the file is not a WAL or was overwritten)"
        )
    return _scan_records(data, newline + 1, int(header.group(1)), path.name)


def scan_wal_tail(
    path: "Path | str", *, offset: int, last_seq: int
) -> WalScan:
    """Scan only the bytes past *offset*, the end of a previously
    scanned prefix whose final record was *last_seq* — O(new records)
    instead of O(history), for pollers that track their position (a
    replica session's refresh). The file having shrunk below *offset*
    means it was rewritten under the caller (compaction, a checkpoint
    re-base), reported as ``base_seq = -1``: positions are void, re-scan
    from scratch. The returned scan's offsets are absolute."""
    path = Path(path)
    with open(path, "rb") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size < offset:
            return WalScan(
                base_seq=-1, records=(), end_offset=offset, torn_at=None
            )
        handle.seek(offset)
        data = handle.read()
    return _scan_records(data, 0, last_seq, path.name, offset)


def truncate_torn_tail(path: "Path | str", scan: WalScan) -> bool:
    """Cut a torn final record off the file; returns whether it did."""
    if scan.torn_at is None:
        return False
    path = Path(path)
    with open(path, "r+b") as handle:
        handle.truncate(scan.end_offset)
        handle.flush()
        os.fsync(handle.fileno())
    return True


class GroupCommitCoordinator:
    """Coalesce concurrent writers' ``batch``-policy fsyncs (group commit).

    N durable sessions under the plain ``batch`` policy each fsync their
    own log every *batch_interval* records — N independent fsync stalls
    for what is logically one "make recent work durable" obligation. A
    coordinator shared by the writers turns that into a **commit
    window**: an append marks its writer dirty and returns immediately;
    a single background flusher wakes every *window* seconds and fsyncs
    every dirty log once. K writers appending within a window cost one
    flush pass instead of K interval-triggered stalls, and each log is
    fsynced at most once per window no matter how many records landed.

    Durability contract: identical in kind to ``batch`` — bounded loss
    of the most recent acknowledged records on power failure (here
    bounded by the window rather than the record count), none on process
    crash (appends are flushed to the OS synchronously; see
    :meth:`WalWriter.append`). :meth:`WalWriter.sync` and
    :meth:`WalWriter.close` remain synchronous barriers. A flush error
    (disk full, revoked fd) is re-raised to the affected writer's next
    ``append``/``sync``/``close`` — the session finds out before it
    acknowledges anything further, not never.
    """

    def __init__(self, window: float = 0.002) -> None:
        if window <= 0:
            raise StoreError(f"commit window must be positive, got {window}")
        self._window = window
        self._cond = threading.Condition()
        self._dirty: "dict[int, WalWriter]" = {}
        self._closed = False
        self._thread: "threading.Thread | None" = None
        self._flushes = 0
        self._scheduled = 0

    @property
    def window(self) -> float:
        return self._window

    @property
    def flushes(self) -> int:
        """Flush passes performed (each fsyncs every then-dirty log once)."""
        return self._flushes

    @property
    def scheduled(self) -> int:
        """Appends that requested durability through the coordinator."""
        return self._scheduled

    def stats(self) -> dict:
        """JSON-serializable counters (``repro-xml store stats`` embeds
        them when group commit is on)."""
        with self._cond:
            return {
                "window_seconds": self._window,
                "flush_passes": self._flushes,
                "appends_coalesced": self._scheduled,
                "pending_writers": len(self._dirty),
            }

    def schedule(self, writer: "WalWriter") -> bool:
        """Mark *writer* dirty; the flusher makes it durable next window.

        Returns ``False`` once the coordinator is closed — the writer
        then falls back to its own synchronous interval fsyncs instead
        of losing durability (see :meth:`WalWriter.append`).
        """
        with self._cond:
            if self._closed:
                return False
            self._scheduled += 1
            self._dirty[id(writer)] = writer
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="wal-group-commit", daemon=True
                )
                self._thread.start()
            self._cond.notify()
        return True

    def discard(self, writer: "WalWriter") -> None:
        """Forget *writer* (it is closing and will flush itself)."""
        with self._cond:
            self._dirty.pop(id(writer), None)

    _IDLE_TIMEOUT = 5.0
    """Seconds of no work after which the flusher thread sheds itself
    (``schedule`` restarts one lazily) — a dropped, never-closed store
    must not pin a thread for the life of the process."""

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._dirty and not self._closed:
                    if not self._cond.wait(timeout=self._IDLE_TIMEOUT):
                        self._thread = None  # idle: next schedule restarts
                        return
                if self._closed and not self._dirty:
                    self._thread = None
                    return
            # let a window's worth of appends accumulate before flushing
            time.sleep(self._window)
            with self._cond:
                batch = list(self._dirty.values())
                self._dirty.clear()
                self._flushes += 1
            for writer in batch:
                writer._flush_for_group()

    def close(self) -> None:
        """Flush everything still dirty and stop the flusher thread."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            batch = list(self._dirty.values())
            self._dirty.clear()
            thread = self._thread
            self._cond.notify_all()
        for writer in batch:
            writer._flush_for_group()
        if thread is not None:
            thread.join(timeout=5)

    def __repr__(self) -> str:
        return (
            f"GroupCommitCoordinator(window={self._window}, "
            f"flushes={self._flushes}, scheduled={self._scheduled})"
        )


class WalWriter:
    """The append side of one document's log.

    Opens the existing file, truncates a torn tail (write-ahead
    discipline makes that always safe), and appends records under one of
    the three fsync policies:

    ``always``
        every append is fsynced before :meth:`append` returns — a crash
        after an acknowledged propagation loses nothing;
    ``batch``
        appends are flushed to the OS immediately but fsynced every
        *batch_interval* records (and on :meth:`sync`/:meth:`close`) —
        bounded loss of the last few acknowledged records on power
        failure, none on process crash. With a *group_commit*
        coordinator attached, the interval fsync is delegated to the
        coordinator's shared per-window flush instead (see
        :class:`GroupCommitCoordinator`);
    ``off``
        never fsyncs — durability is left to the OS page cache.
    """

    def __init__(
        self,
        path: "Path | str",
        *,
        policy: str = "always",
        batch_interval: int = 8,
        group_commit: "GroupCommitCoordinator | None" = None,
    ) -> None:
        if policy not in FSYNC_POLICIES:
            raise StoreError(
                f"unknown fsync policy {policy!r}; pick one of {FSYNC_POLICIES}"
            )
        if batch_interval < 1:
            raise StoreError(f"batch_interval must be positive, got {batch_interval}")
        self._path = Path(path)
        self._policy = policy
        self._interval = batch_interval
        self._group = group_commit if policy == "batch" else None
        self._sync_lock = threading.Lock()
        self._flush_error: "BaseException | None" = None
        self._pending = 0
        self._appended = 0
        self._syncs = 0
        scan = scan_wal(self._path)
        truncate_torn_tail(self._path, scan)
        self._seq = scan.last_seq
        self._handle = open(self._path, "ab")

    @property
    def path(self) -> Path:
        return self._path

    @property
    def policy(self) -> str:
        return self._policy

    @property
    def last_seq(self) -> int:
        """Sequence number of the last appended (or pre-existing) record."""
        return self._seq

    @property
    def appended(self) -> int:
        """Records appended through this writer."""
        return self._appended

    @property
    def syncs(self) -> int:
        """fsync calls issued by this writer."""
        return self._syncs

    @property
    def pending(self) -> int:
        """Appends since the last fsync (``batch`` policy backlog)."""
        return self._pending

    def _raise_deferred(self) -> None:
        """Surface an asynchronous group-commit flush failure."""
        if self._flush_error is not None:
            error, self._flush_error = self._flush_error, None
            raise StoreError(
                f"deferred group-commit flush of {self._path.name} failed"
            ) from error

    def append(self, text: str) -> int:
        """Append one record; returns its sequence number.

        The record is written and flushed before this returns; whether it
        is also fsynced depends on the policy. The caller (the session's
        journal hook) invokes this *before* advancing any in-memory
        state, which is what makes torn tails harmless.
        """
        self._raise_deferred()
        seq = self._seq + 1
        with _child_span("wal.append", seq=seq, policy=self._policy):
            with self._sync_lock:
                self._handle.write(encode_record(seq, text))
                self._handle.flush()
                self._seq = seq
                self._appended += 1
                self._pending += 1
        if self._policy == "always":
            self.sync()
        elif self._policy == "batch":
            with _child_span("group_commit.schedule"):
                delegated = (
                    self._group is not None and self._group.schedule(self)
                )
            if not delegated and self._pending >= self._interval:
                # no coordinator (or a closed one): plain interval fsyncs
                self.sync()
        return seq

    def _flush_for_group(self) -> None:
        """One coordinator-driven fsync; errors are deferred to the
        writer's own thread (never lost, never raised into the flusher)."""
        try:
            with self._sync_lock:
                if self._handle.closed or not self._pending:
                    return
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._pending = 0
                self._syncs += 1
        except BaseException as error:  # noqa: BLE001 - deferred, not dropped
            self._flush_error = error

    def sync(self) -> None:
        """Force everything appended so far onto stable storage."""
        self._raise_deferred()
        with _child_span("fsync", pending=self._pending):
            with self._sync_lock:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._pending = 0
                self._syncs += 1

    def close(self, *, final_sync: "bool | None" = None) -> None:
        """Flush and close; fsyncs pending records unless policy ``off``
        (override with *final_sync*). A deferred group-commit flush
        error is re-raised *after* the handle is flushed and closed —
        the caller learns about it without leaking a half-closed log."""
        if self._group is not None:
            self._group.discard(self)
        if self._handle.closed:
            return
        deferred, self._flush_error = self._flush_error, None
        if deferred is not None and final_sync is None:
            final_sync = self._policy != "off"  # re-attempt what the flusher missed
        with self._sync_lock:
            if final_sync is None:
                final_sync = self._policy != "off" and self._pending > 0
            self._handle.flush()
            if final_sync:
                os.fsync(self._handle.fileno())
                self._pending = 0
                self._syncs += 1
            self._handle.close()
        if deferred is not None:
            raise StoreError(
                f"deferred group-commit flush of {self._path.name} failed "
                "(the log was flushed and closed on this final attempt)"
            ) from deferred

    def reopen(self) -> None:
        """Re-point the writer at the (possibly rewritten) file —
        compaction swaps a trimmed log under the same path."""
        self.close()
        scan = scan_wal(self._path)
        truncate_torn_tail(self._path, scan)
        self._seq = scan.last_seq
        self._pending = 0
        self._handle = open(self._path, "ab")

    def __repr__(self) -> str:
        return (
            f"WalWriter({self._path.name}, policy={self._policy!r}, "
            f"last_seq={self._seq})"
        )
