"""The wire protocol: length-prefixed, CRC-framed JSON messages.

Both directions carry frames of :mod:`repro.framing`::

    M <length> <crc32>\\n
    <length bytes of JSON object>\\n

Damage follows the wire column of the framing policy table: an
incomplete final message is *not yet received*; anything else raises
:class:`~repro.errors.ProtocolError`, and the connection must be
dropped. A request is a JSON object with an ``op`` field, a response is
``{"ok": true, "result": …}`` or ``{"ok": false, "error": …}`` where the
error payload comes from :func:`repro.errors.error_payload`.
"""

from __future__ import annotations

import asyncio
import json
import re

from .. import framing
from ..errors import ProtocolError

__all__ = [
    "encode_message",
    "decode_messages",
    "read_message",
    "write_message",
    "MAX_MESSAGE_BYTES",
]

MAX_MESSAGE_BYTES = 64 * 1024 * 1024
"""Refuse to buffer a single message beyond this — a header declaring a
larger body is treated as protocol damage, not as a request."""

_MESSAGES = framing.Format(
    re.compile(rb"M (?P<len>\d+) (?P<crc>\d+)"), "message", limit=MAX_MESSAGE_BYTES
)


def encode_message(obj: dict) -> bytes:
    """The exact bytes the wire carries for one JSON message."""
    body = json.dumps(obj, sort_keys=True).encode("utf-8")
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(body)} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte frame limit"
        )
    return framing.encode("M", body)


def decode_messages(data: bytes) -> "tuple[list[dict], int]":
    """Parse the complete messages at the front of *data*; returns
    ``(messages, consumed)``, leaving an incomplete final message
    unconsumed until more bytes arrive. Damage (the wire column of the
    :mod:`repro.framing` policy table) raises ProtocolError."""
    scan = framing.scan(data, _MESSAGES)
    messages = [_json_object(frame.body, f" at byte {frame.offset}") for frame in scan.frames]
    if scan.damage == framing.CORRUPT:
        raise ProtocolError(f"{scan.reason} at byte {scan.end} — dropping the connection")
    return messages, scan.end


def _json_object(body: bytes, where: str) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as error:
        raise ProtocolError(f"message{where} carries an unreadable payload ({error})") from error
    if not isinstance(payload, dict):
        raise ProtocolError(f"message{where} payload is not an object")
    return payload


async def read_message(
    reader: "asyncio.StreamReader", *, header: "bytes | None" = None
) -> "dict | None":
    """Read one framed message; ``None`` on a cleanly closed peer.

    A peer that disappears *inside* a message — torn header or torn
    body — is the wire's crash signature and also yields ``None`` (the
    incomplete message was never received); bytes that are present but
    wrong raise :class:`~repro.errors.ProtocolError`. *header* hands in
    a first line the caller already consumed (the server sniffs it to
    tell framed traffic from HTTP on one port). Once the whole message
    is read, any damage in it is fatal.
    """
    if header is None:
        try:
            header = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            return None  # clean EOF, or a torn header: peer went away
        except asyncio.LimitOverrunError as error:
            raise ProtocolError(
                "message header exceeds the stream limit"
            ) from error
    try:
        match, length = framing.parse_header(_MESSAGES, header, 0, len(header) - 1)
    except ValueError as error:
        raise ProtocolError(f"{error}: {header[:64]!r}") from None
    try:
        blob = await reader.readexactly(length + 1)
    except asyncio.IncompleteReadError:
        return None  # torn body: peer died mid-write
    body = framing.check_body(blob, 0, length, int(match["crc"]))
    if body is None:
        raise ProtocolError("message fails its checksum")
    return _json_object(body, "")


async def write_message(writer: "asyncio.StreamWriter", obj: dict) -> None:
    """Frame *obj* and flush it to the peer."""
    writer.write(encode_message(obj))
    await writer.drain()
