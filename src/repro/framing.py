"""The CRC framing shared by the WAL, cache segments, replication feed
and wire protocol: one encoder, one scanner, one damage policy.

A frame is a header line carrying the body's byte length and CRC-32,
then the body and a newline: ``<prefix> <length> <crc32>\\n<body>\\n``.
The prefix is ``R <seq>`` for WAL and cache segment records,
``F <kind>`` for replication ship frames and ``M`` for wire messages.
:func:`scan` reads frames front to back and stops at the first one it
cannot trust, as **torn** (an unfinished final frame) or **corrupt**
(damage with more data after it). Each format maps that onto its
column of the policy table:

===============================================  =====  ==========  =====  =====
case                                             WAL    cache       feed   wire
===============================================  =====  ==========  =====  =====
torn header (no newline yet)                     torn   torn        torn   torn
short body (body or its newline cut off)         torn   torn        torn   torn
bad CRC or missing newline, final frame          torn   torn        torn   torn
bad CRC or missing newline, interior frame       fatal  quarantine  fatal  fatal
complete malformed final line, nothing after it  torn   torn        fatal  fatal
malformed line with more data after it           fatal  quarantine  fatal  fatal
oversize length (beyond the format's cap)        --     --          --     fatal
undecodable payload, final frame                 torn   torn        fatal  fatal
undecodable payload, interior frame              fatal  quarantine  fatal  fatal
sequence gap                                     fatal  quarantine  --     --
===============================================  =====  ==========  =====  =====

**torn**: the scan stops in front of the frame; the WAL truncates it at
recovery, the cache at its next locked append, and the feed and the
wire wait for the rest. **fatal**: the format's typed error.
**quarantine**: the cache renames the segment aside; its entries become
misses. **Undecodable** is not UTF-8 in the WAL and the cache (checked
here, like the CRC) and not a JSON object in the feed and the wire
(checked by the caller once the CRC passed, so fatal anywhere). A lone
garbage final line may be a torn write in a log, but in a stream it can
never become a header; no crash differential cuts a stream into one,
so that row stays split. Readers of one whole frame at a time (cache
point reads, the server's ``read_message``) use :func:`parse_header` and
:func:`check_body`, and treat any damage in it as fatal.
"""

from __future__ import annotations

import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "Format", "RawFrame", "Scan", "TORN", "CORRUPT", "encode", "encode_header",
    "parse_header", "check_body", "scan", "fsync_dir",
]

TORN = "torn"
CORRUPT = "corrupt"


@dataclass(frozen=True)
class Format:
    """One framed format: its header grammar and its policy column."""

    header: "re.Pattern[bytes]"  # a whole header line, with len and crc groups
    noun: str  # what damage reasons call one frame
    garbage_tail_torn: bool = False  # a complete malformed final line is torn
    limit: "int | None" = None  # a larger declared length is corrupt
    text: bool = False  # bodies are UTF-8: frames carry str, undecodable is damage


class RawFrame(NamedTuple):
    """One intact frame."""

    offset: int  # where its header starts
    header: "re.Match[bytes]"
    body_at: int  # where its body starts
    body: "bytes | str"


class Scan(NamedTuple):
    """What :func:`scan` found."""

    frames: "list[RawFrame]"
    end: int  # past the last intact frame: where appends resume, damage begins
    damage: "str | None"  # None (clean), TORN or CORRUPT
    reason: "str | None"


def encode_header(prefix: str, body: bytes) -> "tuple[bytes, int]":
    """The header line framing *body*, and the body's CRC-32."""
    crc = zlib.crc32(body)
    return f"{prefix} {len(body)} {crc}\n".encode("ascii"), crc


def encode(prefix: str, body: bytes) -> bytes:
    """The exact bytes of one frame."""
    return encode_header(prefix, body)[0] + body + b"\n"


def parse_header(
    fmt: Format, data: bytes, pos: int, end: int
) -> "tuple[re.Match[bytes], int]":
    """Match the header line ``data[pos:end]`` (without its newline) and
    return it with its declared body length; raises :class:`ValueError`
    when it is malformed or declares an oversize body."""
    match = fmt.header.fullmatch(data, pos, end)
    if match is None:
        raise ValueError(f"malformed {fmt.noun} header")
    length = int(match["len"])
    if fmt.limit is not None and length > fmt.limit:
        raise ValueError(
            f"{fmt.noun} header declares {length} bytes, beyond the "
            f"{fmt.limit}-byte frame limit"
        )
    return match, length


def check_body(data: bytes, at: int, length: int, crc: int) -> "bytes | None":
    """The *length*-byte body at offset *at* of *data*, or ``None`` when
    it is cut short, lacks its newline or fails *crc*."""
    end = at + length
    if len(data) <= end or data[end] != 0x0A:
        return None
    body = data[at:end]
    return body if zlib.crc32(body) == crc else None


def scan(data: bytes, fmt: Format, pos: int = 0) -> Scan:
    """Read the frames of *data* from *pos* on, stopping at the end or
    at the first frame that is not intact (see the policy table)."""
    frames: "list[RawFrame]" = []
    size = len(data)
    while pos < size:
        header_end = data.find(b"\n", pos)
        if header_end < 0:
            return Scan(frames, pos, TORN, "torn header")
        try:
            header, length = parse_header(fmt, data, pos, header_end)
        except ValueError as error:
            torn = fmt.garbage_tail_torn and header_end + 1 == size
            return Scan(frames, pos, TORN if torn else CORRUPT, str(error))
        body_at = header_end + 1
        end = body_at + length + 1
        if end > size:
            return Scan(frames, pos, TORN, "short body")
        body = check_body(data, body_at, length, int(header["crc"]))
        reason = None if body is not None else f"{fmt.noun} fails its checksum"
        if body is not None and fmt.text:
            try:
                body = body.decode("utf-8")
            except UnicodeDecodeError:
                reason = f"{fmt.noun} carries an undecodable payload"
        if reason is not None:
            return Scan(frames, pos, TORN if end == size else CORRUPT, reason)
        frames.append(RawFrame(pos, header, body_at, body))
        pos = end
    return Scan(frames, pos, None, None)


def fsync_dir(path: "Path | str") -> None:
    """Make renames and creates inside *path* durable. Not every
    platform allows opening a directory; there we did our best."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
