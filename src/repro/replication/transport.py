"""Replication transports: CRC-framed ship streams, pluggable carriers.

What ships is what the store already trusts — WAL records plus snapshot
payloads for bootstrap — as frames of :mod:`repro.framing`::

    F <kind> <length> <crc32>\\n
    <length bytes of JSON payload>\\n

Every carrier follows the feed column of the framing policy table: an
incomplete final frame is *not yet received* and stays buffered or
spooled; damage, or checked bytes that are not a JSON object, raises
:class:`~repro.errors.ReplicationError`.

Three carriers implement the same two-ended interface
(:class:`ReplicationTransport`: ``send`` frames in, ``drain`` complete
frames out):

* :class:`QueueTransport` — an in-process queue; the zero-configuration
  topology for standbys in the same process (tests, embedded replicas);
* :class:`SocketTransport` — a real OS byte stream
  (:func:`socket.socketpair`); partial reads and torn sends behave
  exactly as a TCP link would, without binding ports. A networked
  deployment swaps the pair for a connected socket — the framing and
  drain loop are unchanged;
* :class:`FileSpoolTransport` — an append-only spool file; the
  crash-tolerant carrier (ship and apply survive kills at any byte, and
  the spool doubles as an audit trail of everything ever shipped).
"""

from __future__ import annotations

import errno
import json
import os
import re
import socket
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .. import framing
from ..errors import ReplicationError

__all__ = [
    "Frame",
    "encode_frame",
    "decode_frames",
    "ReplicationTransport",
    "QueueTransport",
    "SocketTransport",
    "FileSpoolTransport",
]

_FRAMES = framing.Format(
    re.compile(rb"F (?P<kind>[a-z_]+) (?P<len>\d+) (?P<crc>\d+)"), "ship frame"
)

FRAME_KINDS = ("bootstrap", "checkpoint", "record")
"""What ships: a full document (schema + snapshot), a snapshot alone
(re-basing a standby past a compacted prefix), one WAL record."""


@dataclass(frozen=True)
class Frame:
    """One decoded ship message."""

    kind: str
    payload: dict


def encode_frame(kind: str, payload: dict) -> bytes:
    """The exact bytes a transport carries for (*kind*, *payload*)."""
    if kind not in FRAME_KINDS:
        raise ReplicationError(
            f"unknown frame kind {kind!r}; ship one of {FRAME_KINDS}"
        )
    return framing.encode(
        f"F {kind}", json.dumps(payload, sort_keys=True).encode("utf-8")
    )


def decode_frames(data: bytes) -> "tuple[list[Frame], int]":
    """Parse the complete frames at the front of *data*; returns
    ``(frames, consumed)``, leaving an incomplete final frame unconsumed
    until more bytes arrive. Damage (the feed column of the
    :mod:`repro.framing` policy table) raises ReplicationError."""
    scan = framing.scan(data, _FRAMES)
    frames: "list[Frame]" = []
    for frame in scan.frames:
        try:
            payload = json.loads(frame.body.decode("utf-8"))
        except ValueError as error:
            raise ReplicationError(
                f"ship frame at byte {frame.offset} carries an unreadable "
                f"payload ({error})"
            ) from error
        if not isinstance(payload, dict):
            raise ReplicationError(
                f"ship frame at byte {frame.offset} payload is not an object"
            )
        frames.append(Frame(frame.header["kind"].decode("ascii"), payload))
    if scan.damage == framing.CORRUPT:
        raise ReplicationError(
            f"{scan.reason} at byte {scan.end} — interior corruption, "
            "refusing to apply anything past it"
        )
    return frames, scan.end


class ReplicationTransport:
    """The two-ended carrier interface: a shipper ``send``\\ s frames, an
    applier ``drain``\\ s whatever complete frames have arrived (never
    blocking on a partial one)."""

    def send(self, kind: str, payload: dict) -> None:
        raise NotImplementedError

    def drain(self) -> "list[Frame]":
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - optional hook
        """Release carrier resources (sockets, file handles)."""


class QueueTransport(ReplicationTransport):
    """In-process carrier: frames ride a deque as encoded bytes.

    Frames are still encoded/decoded — the queue carries the same bytes
    a socket would, so framing bugs cannot hide behind object passing.
    """

    def __init__(self) -> None:
        self._queue: "deque[bytes]" = deque()
        self.sent = 0
        self.received = 0

    def send(self, kind: str, payload: dict) -> None:
        self._queue.append(encode_frame(kind, payload))
        self.sent += 1

    def drain(self) -> "list[Frame]":
        frames: "list[Frame]" = []
        while self._queue:
            decoded, consumed = decode_frames(self._queue.popleft())
            frames.extend(decoded)
        self.received += len(frames)
        return frames


class SocketTransport(ReplicationTransport):
    """A real OS byte stream between shipper and applier.

    Built on :func:`socket.socketpair` by default, so it exercises
    everything a TCP link would — partial reads, frames split across
    ``recv`` calls, a sender that dies mid-frame — without ports or
    network flakiness. The applier side buffers bytes across ``drain``
    calls and only yields complete frames.

    A networked deployment passes already-connected sockets instead:
    the follow daemon binds its end with ``SocketTransport(send_sock=
    conn)`` and the remote applier binds ``SocketTransport(recv_sock=
    conn)`` — same framing, same drain loop, real TCP underneath. An
    end the transport was not given is simply absent (``send``/``drain``
    on it raises), because over TCP the other end lives in a different
    process. ``eof`` flips once the peer closes its write side, so a
    long-running applier can tell "no bytes yet" from "feed is gone";
    bytes of a torn final frame stay buffered and are never applied —
    a sender killed mid-frame is indistinguishable from one that never
    sent the frame at all.
    """

    _CHUNK = 65536

    def __init__(
        self,
        send_sock: "socket.socket | None" = None,
        recv_sock: "socket.socket | None" = None,
    ) -> None:
        if send_sock is None and recv_sock is None:
            send_sock, recv_sock = socket.socketpair()
        self._send_sock = send_sock
        self._recv_sock = recv_sock
        if self._recv_sock is not None:
            self._recv_sock.setblocking(False)
        self._buffer = bytearray()
        self.sent = 0
        self.received = 0
        self.eof = False

    def send(self, kind: str, payload: dict) -> None:
        if self._send_sock is None:
            raise ReplicationError(
                "this transport end only receives — the sender lives in "
                "another process"
            )
        self._send_sock.sendall(encode_frame(kind, payload))
        self.sent += 1

    def drain(self) -> "list[Frame]":
        if self._recv_sock is None:
            raise ReplicationError(
                "this transport end only sends — the receiver lives in "
                "another process"
            )
        while True:
            try:
                chunk = self._recv_sock.recv(self._CHUNK)
            except OSError as error:
                if error.errno in (errno.EAGAIN, errno.EWOULDBLOCK):
                    break
                raise
            if not chunk:
                self.eof = True
                break  # sender closed
            self._buffer.extend(chunk)
        frames, consumed = decode_frames(bytes(self._buffer))
        del self._buffer[:consumed]
        self.received += len(frames)
        return frames

    def close(self) -> None:
        if self._send_sock is not None:
            self._send_sock.close()
        if self._recv_sock is not None and self._recv_sock is not self._send_sock:
            self._recv_sock.close()


class FileSpoolTransport(ReplicationTransport):
    """An append-only spool file as the carrier.

    The shipper appends frames (flushed, optionally fsynced); the
    applier reads complete frames past its high-water offset. A shipper
    killed mid-append leaves a torn final frame that the applier simply
    does not see — when shipping resumes (or re-runs), the spool is
    truncated back to its last complete frame first, exactly like a WAL
    torn tail. Because appliers skip already-applied sequence numbers,
    replaying the whole spool from byte 0 is always safe: the spool is
    idempotent by construction.
    """

    def __init__(self, path: "Path | str", *, fsync: bool = False) -> None:
        self._path = Path(path)
        self._fsync = fsync
        self._offset = 0
        self._tail_repaired = False
        self.sent = 0
        self.received = 0

    @property
    def path(self) -> Path:
        return self._path

    def _repair_tail(self) -> None:
        """Truncate a torn final frame before appending after it —
        otherwise the new frame would be glued onto garbage and read as
        interior corruption forever. Once per transport: only a frame a
        *previous* shipper died inside can be torn; this instance's own
        appends are written whole."""
        try:
            data = self._path.read_bytes()
        except FileNotFoundError:
            return
        # the frame checks alone find the tail; payloads need no decode
        scan = framing.scan(data, _FRAMES)
        if scan.damage == framing.CORRUPT:
            raise ReplicationError(
                f"{scan.reason} at byte {scan.end} of spool {self._path} — "
                "interior corruption, refusing to append after it"
            )
        if scan.end < len(data):
            with open(self._path, "r+b") as handle:
                handle.truncate(scan.end)
                handle.flush()
                os.fsync(handle.fileno())

    def send(self, kind: str, payload: dict) -> None:
        if not self._tail_repaired:
            self._repair_tail()
            self._tail_repaired = True
        with open(self._path, "ab") as handle:
            handle.write(encode_frame(kind, payload))
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
        self.sent += 1

    def drain(self) -> "list[Frame]":
        try:
            with open(self._path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() < self._offset:
                    # the spool was rewritten shorter (a fresh shipping
                    # run); start over — sequence-number skipping at the
                    # applier makes that safe
                    self._offset = 0
                handle.seek(self._offset)
                data = handle.read()
        except FileNotFoundError:
            return []
        frames, consumed = decode_frames(data)
        self._offset += consumed
        self.received += len(frames)
        return frames

    def rewind(self) -> None:
        """Re-read the spool from the start on the next drain (appliers
        deduplicate by sequence number, so this is always safe)."""
        self._offset = 0
