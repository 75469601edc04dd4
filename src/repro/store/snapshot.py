"""Snapshots: the materialized tree at a known log offset.

A snapshot is a checkpoint of one document keyed by (schema hash, log
sequence number): the XML serialization of the tree *after* applying
log records ``1 .. seq``. Recovery loads the newest usable snapshot and
replays only the log tail past it; compaction writes one and trims the
log behind it.

File format (``snapshots/<seq padded to 12 digits>.snap``):

.. code-block:: text

    {"format": 1, "seq": N, "schema": "<hex>", "size": B, "crc": C}\\n
    <B bytes: tree_to_xml(tree) with identifiers, no indentation>

The header pins the schema fingerprint the tree was valid under and the
CRC-32/length of the body, so a damaged snapshot is detected and skipped
(recovery falls back to an older one when the log still covers it)
rather than loaded as a subtly different document. The body round-trips
through :func:`repro.xmltree.tree_from_xml` with ``require_ids=True`` —
identifier-exact, which the edit-script replay depends on — and every
write re-reads its own bytes before publishing, so an unserializable
document fails at write time, not at recovery time.

Writes are atomic: tmp file, fsync, rename, directory fsync.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..errors import SnapshotCorruptError, TreeError
from ..framing import fsync_dir
from ..xmltree import Tree, tree_from_xml, tree_to_xml

__all__ = ["Snapshot", "snapshot_path", "write_snapshot", "read_snapshot", "list_snapshots"]

_FORMAT = 1
_SUFFIX = ".snap"
_PAD = 12


@dataclass(frozen=True)
class Snapshot:
    """One loaded checkpoint."""

    seq: int
    """Log sequence number the tree reflects (records ``1..seq`` applied)."""

    schema_hash: str
    """Canonical fingerprint of the ``(DTD, Annotation)`` the document
    was stored under."""

    tree: Tree
    """The materialized document."""


def snapshot_path(directory: "Path | str", seq: int) -> Path:
    """Where the checkpoint at *seq* lives (zero-padded so lexicographic
    listing order is sequence order)."""
    return Path(directory) / f"{seq:0{_PAD}d}{_SUFFIX}"


def write_snapshot(
    directory: "Path | str",
    tree: Tree,
    *,
    seq: int,
    schema_hash: str,
) -> Path:
    """Atomically publish the checkpoint of *tree* at *seq*.

    The body is re-read and compared against *tree* before the rename:
    a document that does not survive the XML round trip (a label that is
    not a well-formed tag name, say) must fail here, while the log that
    can rebuild it still exists.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    body = tree_to_xml(tree, indent=False).encode("utf-8")
    reread = tree_from_xml(body.decode("utf-8"), require_ids=True)
    if reread != tree:
        raise SnapshotCorruptError(
            "document does not survive the XML round trip; refusing to "
            "write an unrecoverable snapshot"
        )
    header = {
        "format": _FORMAT,
        "seq": seq,
        "schema": schema_hash,
        "size": len(body),
        "crc": zlib.crc32(body),
    }
    target = snapshot_path(directory, seq)
    tmp = target.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("ascii"))
        handle.write(b"\n")
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
    fsync_dir(directory)
    return target


def read_snapshot(
    path: "Path | str", *, schema_hash: "str | None" = None
) -> Snapshot:
    """Load and verify one checkpoint.

    Raises :class:`SnapshotCorruptError` when the header does not parse,
    the body fails its length/checksum, the XML does not round-trip with
    identifiers, or (when *schema_hash* is given) the snapshot was taken
    under a different schema.
    """
    path = Path(path)
    data = path.read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        raise SnapshotCorruptError(f"{path.name}: missing snapshot header")
    try:
        header = json.loads(data[:newline])
    except ValueError as error:
        raise SnapshotCorruptError(
            f"{path.name}: unreadable snapshot header ({error})"
        ) from error
    if not isinstance(header, dict) or header.get("format") != _FORMAT:
        raise SnapshotCorruptError(
            f"{path.name}: unsupported snapshot format {header!r}"
        )
    if not isinstance(header.get("seq"), int) or not isinstance(
        header.get("schema"), str
    ):
        raise SnapshotCorruptError(
            f"{path.name}: snapshot header lacks a usable seq/schema field"
        )
    body = data[newline + 1:]
    if len(body) != header.get("size") or zlib.crc32(body) != header.get("crc"):
        raise SnapshotCorruptError(
            f"{path.name}: snapshot body fails its length/checksum"
        )
    if schema_hash is not None and header.get("schema") != schema_hash:
        raise SnapshotCorruptError(
            f"{path.name}: snapshot was taken under schema "
            f"{str(header.get('schema'))[:12]}…, expected {schema_hash[:12]}…"
        )
    try:
        tree = tree_from_xml(body.decode("utf-8"), require_ids=True)
    except (TreeError, ValueError, SyntaxError) as error:  # ET.ParseError is a SyntaxError
        raise SnapshotCorruptError(
            f"{path.name}: snapshot body is not an identifier-carrying "
            f"XML document ({error})"
        ) from error
    return Snapshot(seq=header["seq"], schema_hash=header["schema"], tree=tree)


def list_snapshots(directory: "Path | str") -> "list[tuple[int, Path]]":
    """All checkpoint files by ascending sequence number (unreadable
    names are ignored — they are not checkpoints)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found: "list[tuple[int, Path]]" = []
    for entry in directory.iterdir():
        if entry.suffix != _SUFFIX:
            continue
        try:
            found.append((int(entry.stem), entry))
        except ValueError:
            continue
    found.sort()
    return found
