"""Segment files: the disk cache's append-only, self-checking record log.

.. code-block:: text

    CSEGv1 <segment_number>\\n      # file header, written once
    R <seq> <length> <crc32>\\n     # one record per append, framed as in the WAL
    <length bytes of JSON payload>\\n

Damage follows the cache column of the :mod:`repro.framing` policy
table: a torn tail is ignored until the next locked append truncates
it, and interior damage or a sequence gap quarantines the whole
segment. Nothing raises into the serving tier, and :func:`read_payload`
re-verifies the CRC on every point read, so damage that lands after the
scan is caught too. Segment numbers are monotonic and scans apply
records in ``(segment, seq)`` order, so entries that garbage collection
rewrites into a fresh, higher-numbered segment win over stale ones.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

from .. import framing
from ..store.wal import RECORD_FORMAT

__all__ = [
    "CacheRecord",
    "SegmentScan",
    "segment_path",
    "segment_number",
    "list_segments",
    "create_segment",
    "scan_segment",
    "read_payload",
    "append_records",
]

_MAGIC = b"CSEGv1"
_HEADER_RE = re.compile(rb"CSEGv1 (\d+)")

SEGMENT_SUFFIX = ".log"
QUARANTINE_SUFFIX = ".bad"
_SEGMENT_RE = re.compile(r"seg-(\d+)\.log$")


@dataclass(frozen=True)
class CacheRecord:
    """One intact record: where its payload lives and how to verify it."""

    segment: int
    seq: int
    offset: int
    """Byte offset of the payload within the segment file."""
    length: int
    crc: int
    text: str
    """The payload (carried by scans; point reads re-fetch from disk)."""


@dataclass
class SegmentScan:
    """Everything one pass over a segment (or its tail) learned."""

    number: int
    records: "list[CacheRecord]"
    intact_end: int
    """Byte offset just past the last intact record — appends resume
    here, and bytes beyond it are torn-tail garbage."""
    next_seq: int
    torn: bool
    """The file ends in an unfinished record (safe: ignore/truncate)."""
    corrupt: bool
    """Interior damage — the caller must quarantine the segment."""
    reason: "str | None" = None


def segment_path(root: "Path | str", number: int) -> Path:
    return Path(root) / f"seg-{number}{SEGMENT_SUFFIX}"


def segment_number(path: "Path | str") -> "int | None":
    match = _SEGMENT_RE.search(Path(path).name)
    return int(match.group(1)) if match else None


def list_segments(root: "Path | str") -> "list[tuple[int, Path]]":
    """All live ``(number, path)`` segments under *root*, ascending."""
    found = []
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return []
    for name in names:
        match = _SEGMENT_RE.fullmatch(name)
        if match:
            found.append((int(match.group(1)), Path(root) / name))
    found.sort()
    return found


def _fsync_fd(handle) -> None:
    handle.flush()
    os.fsync(handle.fileno())


def create_segment(path: "Path | str", number: int) -> int:
    """Write a fresh segment header; returns the header's byte length."""
    path = Path(path)
    header = _MAGIC + f" {number}\n".encode("ascii")
    with open(path, "wb") as handle:
        handle.write(header)
        _fsync_fd(handle)
    framing.fsync_dir(path.parent)
    return len(header)


def scan_segment(
    path: "Path | str", *, offset: int = 0, expected_seq: int = 1, number: int = -1
) -> SegmentScan:
    """Scan a segment (or, with *offset* > 0, only its unseen tail, whose
    records carry *number* since the header is not read).

    Never raises on damage: what the cache column of the framing policy
    table quarantines comes back as ``corrupt=True``, a torn tail as
    ``torn=True`` with everything before it intact.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            if offset:
                handle.seek(offset)
            data = handle.read()
    except OSError:
        return SegmentScan(-1, [], offset, expected_seq, False, True, "unreadable")
    pos = 0
    if offset == 0:
        header_end = data.find(b"\n")
        if header_end < 0:
            # a header shorter than one line is a torn creation
            return SegmentScan(-1, [], 0, 1, True, False, "torn header")
        match = _HEADER_RE.fullmatch(data[:header_end])
        if match is None:
            return SegmentScan(-1, [], 0, 1, False, True, "bad header")
        number = int(match.group(1))
        pos = header_end + 1
    scan = framing.scan(data, RECORD_FORMAT, pos)
    records: "list[CacheRecord]" = []
    seq = expected_seq
    for frame in scan.frames:
        rec_seq = int(frame.header["seq"])
        if rec_seq != seq:
            at = offset + frame.offset
            reason = f"expected record {seq} at byte {at}, found {rec_seq}"
            return SegmentScan(number, records, at, seq, False, True, reason)
        length, crc = int(frame.header["len"]), int(frame.header["crc"])
        records.append(CacheRecord(number, seq, offset + frame.body_at, length, crc, frame.body))
        seq += 1
    torn, corrupt = scan.damage == framing.TORN, scan.damage == framing.CORRUPT
    reason = scan.reason and f"{scan.reason} at byte {offset + scan.end}"
    return SegmentScan(number, records, offset + scan.end, seq, torn, corrupt, reason)


def read_payload(
    path: "Path | str", offset: int, length: int, crc: int
) -> "str | None":
    """Point-read one payload, re-verifying frame and checksum.

    Returns ``None`` on any damage (an unreadable file, or a frame body
    :func:`~repro.framing.check_body` refuses or that is not UTF-8) — the
    caller treats that as corruption and quarantines the segment.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read(length + 1)
    except OSError:
        return None
    body = framing.check_body(data, 0, length, crc)
    if body is None:
        return None
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError:
        return None


def append_records(
    path: "Path | str",
    texts: "list[str]",
    first_seq: int,
    *,
    number: int,
    fsync: bool = False,
) -> "tuple[list[CacheRecord], int]":
    """Append *texts* as consecutive records from *first_seq*.

    Returns the appended records and the new end offset. The caller is
    responsible for exclusion (the tier appends under its file lock)
    and for having truncated any torn tail first — appends always land
    at the current end of file.
    """
    path = Path(path)
    records: "list[CacheRecord]" = []
    with open(path, "ab") as handle:
        end = handle.tell()
        for index, text in enumerate(texts):
            seq = first_seq + index
            payload = text.encode("utf-8")
            header, crc = framing.encode_header(f"R {seq}", payload)
            records.append(
                CacheRecord(number, seq, end + len(header), len(payload), crc, text)
            )
            handle.write(header + payload + b"\n")
            end += len(header) + len(payload) + 1
        if fsync:
            _fsync_fd(handle)
    return records, end
