"""One property suite for the CRC framing of all four formats.

Every format — WAL records, cache segment records, replication ship
frames, wire messages — is read through its own public reader after
its input is cut at every byte, flipped at every byte, and extended by
a lone garbage line (plus the undecodable, oversize and sequence-gap
rows). The expected outcome of each case is looked up in the policy
table of :mod:`repro.framing`, parsed from its docstring, so the table
the module documents is the table the readers obey.
"""

import asyncio
import re
import zlib
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import framing
from repro.cache.segments import append_records, create_segment, read_payload, scan_segment
from repro.errors import ProtocolError, ReplicationError, WALCorruptError
from repro.replication.transport import decode_frames, encode_frame
from repro.server.protocol import MAX_MESSAGE_BYTES, decode_messages, encode_message, read_message
from repro.store.wal import encode_record, scan_wal


def _policy_table(doc):
    """``{case: {format: outcome}}`` from the reST table in *doc*."""
    lines = doc.splitlines()
    rules = [i for i, line in enumerate(lines) if re.fullmatch(r"=+( +=+)+", line)]
    header, *rows = lines[rules[0] + 1:rules[2]]
    formats = header.split()[1:]
    table = {}
    for row in rows:
        if row.startswith("="):
            continue
        case, *cells = re.split(r"  +", row.strip())
        table[case] = dict(zip(formats, cells))
    return table


TABLE = _policy_table(framing.__doc__)

CASES = {
    "torn header (no newline yet)",
    "short body (body or its newline cut off)",
    "bad CRC or missing newline, final frame",
    "bad CRC or missing newline, interior frame",
    "complete malformed final line, nothing after it",
    "malformed line with more data after it",
    "oversize length (beyond the format's cap)",
    "undecodable payload, final frame",
    "undecodable payload, interior frame",
    "sequence gap",
}


class Outcome(NamedTuple):
    status: str  # clean, torn, fatal or quarantine
    bodies: "tuple | None" = None  # the intact payloads (clean and torn only)
    end: "int | None" = None  # where the intact prefix ends (clean and torn only)


def _compare(outcome):
    """Fatal and quarantine outcomes carry nothing worth comparing."""
    return outcome if outcome.status in ("clean", "torn") else Outcome(outcome.status)


class _Wal:
    name = "WAL"
    prefix = b"WALv1 0\n"

    def __init__(self, root):
        self.path = root / "wal.log"

    def frame(self, seq, text):
        return encode_record(seq, text)

    def undecodable(self, seq):
        return framing.encode(f"R {seq}", b"\xff\xfe")

    def read(self, data):
        self.path.write_bytes(self.prefix + data)
        try:
            scan = scan_wal(self.path)
        except WALCorruptError:
            return Outcome("fatal")
        assert scan.base_seq == 0
        assert [r.seq for r in scan.records] == list(range(1, len(scan.records) + 1))
        assert scan.last_seq == len(scan.records)
        if scan.torn_at is None:
            assert scan.end_offset == len(self.prefix + data)
        else:
            assert scan.torn_at == scan.end_offset
        status = "clean" if scan.torn_at is None else "torn"
        texts = tuple(r.text for r in scan.records)
        return Outcome(status, texts, scan.end_offset - len(self.prefix))


class _Cache:
    name = "cache"
    prefix = b"CSEGv1 1\n"

    def __init__(self, root):
        self.path = root / "seg-1.log"

    frame = _Wal.frame
    undecodable = _Wal.undecodable

    def read(self, data):
        self.path.write_bytes(self.prefix + data)
        scan = scan_segment(self.path)
        if scan.corrupt:
            return Outcome("quarantine")
        assert scan.number == 1 and not (scan.torn and scan.corrupt)
        for record in scan.records:  # every point read re-verifies
            assert read_payload(self.path, record.offset, record.length, record.crc) == record.text
        assert scan.next_seq == len(scan.records) + 1
        texts = tuple(r.text for r in scan.records)
        status = "torn" if scan.torn else "clean"
        if status == "clean":
            assert scan.intact_end == len(self.prefix + data)
        return Outcome(status, texts, scan.intact_end - len(self.prefix))


class _Feed:
    name = "feed"
    prefix = b""

    def __init__(self, root):
        pass

    def frame(self, seq, text):
        return encode_frame("record", {"seq": seq, "text": text})

    def undecodable(self, seq):
        return framing.encode("F record", b"[1, 2]")

    def read(self, data):
        try:
            frames, consumed = decode_frames(data)
        except ReplicationError:
            return Outcome("fatal")
        status = "clean" if consumed == len(data) else "torn"
        return Outcome(status, tuple(f.payload["text"] for f in frames), consumed)


class _Wire:
    name = "wire"
    prefix = b""

    def __init__(self, root):
        pass

    def frame(self, seq, text):
        return encode_message({"seq": seq, "text": text})

    def undecodable(self, seq):
        return framing.encode("M", b"\xff not json")

    def read(self, data):
        try:
            messages, consumed = decode_messages(data)
        except ProtocolError:
            return Outcome("fatal")
        status = "clean" if consumed == len(data) else "torn"
        return Outcome(status, tuple(m["text"] for m in messages), consumed)


FORMATS = [_Wal, _Cache, _Feed, _Wire]

texts_strategy = st.lists(st.text(max_size=12), min_size=1, max_size=3)
SCRIPTS = ["Nop.r#n0", "Nop.r#n0(Ins.a#n1)"]  # two records, as a WAL holds them
SUITE = settings(max_examples=25, deadline=None)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("framing")


@pytest.fixture(scope="module", params=FORMATS, ids=lambda cls: cls.name)
def fmt(request, root):
    return request.param(root)


def _frames(fmt, texts):
    """The encoded frames, and the byte offset each one starts at."""
    frames = [fmt.frame(seq, text) for seq, text in enumerate(texts, start=1)]
    starts = [0]
    for frame in frames:
        starts.append(starts[-1] + len(frame))
    return frames, starts


def _expected(fmt, case, texts, k, end):
    """What the policy table says about damage in front of frame *k*."""
    outcome = TABLE[case][fmt.name]
    if outcome == "torn":
        return Outcome("torn", tuple(texts[:k]), end)
    return Outcome(outcome)


def test_policy_table_lists_every_case_for_every_format():
    assert set(TABLE) == CASES
    for row in TABLE.values():
        assert list(row) == ["WAL", "cache", "feed", "wire"]
        assert set(row.values()) <= {"torn", "fatal", "quarantine", "--"}


@SUITE
@given(texts=texts_strategy)
@example(texts=SCRIPTS)
def test_every_cut(fmt, texts):
    frames, starts = _frames(fmt, texts)
    data = b"".join(frames)
    for cut in range(len(data) + 1):
        k = max(i for i, start in enumerate(starts) if start <= cut)
        if starts[k] == cut:
            expected = Outcome("clean", tuple(texts[:k]), cut)
        else:
            header_done = b"\n" in data[starts[k]:cut]
            case = (
                "short body (body or its newline cut off)"
                if header_done
                else "torn header (no newline yet)"
            )
            expected = _expected(fmt, case, texts, k, starts[k])
        assert fmt.read(data[:cut]) == expected, f"cut at {cut}"


@SUITE
@given(texts=texts_strategy)
@example(texts=SCRIPTS)
def test_every_flip(fmt, texts):
    frames, starts = _frames(fmt, texts)
    data = b"".join(frames)
    for at in range(len(data)):
        flipped = bytearray(data)
        flipped[at] ^= 0xFF  # never ASCII afterwards: no header survives it
        k = max(i for i, start in enumerate(starts) if start <= at)
        header_end = data.index(b"\n", starts[k])
        last = k == len(frames) - 1
        if at < header_end:
            case = "malformed line with more data after it"
        elif at == header_end:  # the header line now runs into the body
            line_end = data.index(b"\n", header_end + 1)
            case = (
                "complete malformed final line, nothing after it"
                if line_end == len(data) - 1
                else "malformed line with more data after it"
            )
        else:
            case = (
                "bad CRC or missing newline, final frame"
                if last
                else "bad CRC or missing newline, interior frame"
            )
        expected = _expected(fmt, case, texts, k, starts[k])
        assert _compare(fmt.read(bytes(flipped))) == expected, f"flip at {at}"


@SUITE
@given(texts=texts_strategy, garbage=st.sampled_from([b"garbage", b"R 1 2", b"", b"\xff\xfe"]))
def test_lone_garbage_line(fmt, texts, garbage):
    frames, _ = _frames(fmt, texts)
    data = b"".join(frames)
    n = len(frames)
    line = garbage + b"\n"
    lone = _expected(fmt, "complete malformed final line, nothing after it", texts, n, len(data))
    assert _compare(fmt.read(data + line)) == lone
    more = _expected(fmt, "malformed line with more data after it", texts, n, len(data))
    assert _compare(fmt.read(data + line + fmt.frame(n + 1, "x"))) == more
    if garbage:  # the same bytes before their newline arrives
        unfinished = _expected(fmt, "torn header (no newline yet)", texts, n, len(data))
        assert fmt.read(data + garbage) == unfinished


@SUITE
@given(texts=texts_strategy)
def test_undecodable_payload(fmt, texts):
    frames, _ = _frames(fmt, texts)
    data = b"".join(frames)
    n = len(frames)
    bad = fmt.undecodable(n + 1)
    final = _expected(fmt, "undecodable payload, final frame", texts, n, len(data))
    assert _compare(fmt.read(data + bad)) == final
    interior = _expected(fmt, "undecodable payload, interior frame", texts, n, len(data))
    assert _compare(fmt.read(data + bad + fmt.frame(n + 2, "x"))) == interior


@SUITE
@given(texts=texts_strategy)
def test_oversize_length(fmt, texts):
    frames, _ = _frames(fmt, texts)
    data = b"".join(frames)
    n = len(frames)
    prefix, _, crc = fmt.frame(n + 1, "x").split(b"\n")[0].rsplit(b" ", 2)
    oversize = b"%s %d %s\n" % (prefix, MAX_MESSAGE_BYTES + 1, crc)
    outcome = TABLE["oversize length (beyond the format's cap)"][fmt.name]
    if outcome == "--":  # no cap: the declared body has simply not arrived
        expected = Outcome("torn", tuple(texts), len(data))
    else:
        expected = Outcome(outcome)
    assert _compare(fmt.read(data + oversize)) == expected


SEQUENCED = [cls for cls in FORMATS if TABLE["sequence gap"][cls.name] != "--"]


@pytest.mark.parametrize("cls", SEQUENCED, ids=lambda cls: cls.name)
@SUITE
@given(texts=texts_strategy, skip=st.integers(min_value=1, max_value=3))
def test_sequence_gap(cls, root, texts, skip):
    fmt = cls(root)
    outcome = TABLE["sequence gap"][fmt.name]
    frames, _ = _frames(fmt, texts)
    data = b"".join(frames)
    gap = fmt.frame(len(frames) + 1 + skip, "x")
    assert _compare(fmt.read(data + gap)) == Outcome(outcome)


def _read_stream(data):
    """Every message :func:`read_message` yields off a stream carrying
    *data*, then ``None`` (peer gone) or the :class:`ProtocolError`."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        messages = []
        try:
            while (message := await read_message(reader)) is not None:
                messages.append(message["text"])
        except ProtocolError:
            return tuple(messages), "fatal"
        return tuple(messages), None

    return asyncio.run(run())


@settings(max_examples=8, deadline=None)
@given(texts=texts_strategy)
def test_stream_reader_treats_any_received_damage_as_fatal(texts):
    """The server reads one whole message at a time: a cut is a peer
    gone (``None``), and every flip or garbage line is fatal."""
    wire = _Wire(None)
    frames, starts = _frames(wire, texts)
    data = b"".join(frames)
    for cut in range(len(data) + 1):
        k = max(i for i, start in enumerate(starts) if start <= cut)
        assert _read_stream(data[:cut]) == (tuple(texts[:k]), None)
    for at in range(len(data)):
        flipped = bytearray(data)
        flipped[at] ^= 0xFF
        k = max(i for i, start in enumerate(starts) if start <= at)
        assert _read_stream(bytes(flipped)) == (tuple(texts[:k]), "fatal")
    assert _read_stream(data + b"garbage\n") == (tuple(texts), "fatal")


class TestEncodersAreByteStable:
    """The encoders emit exactly the bytes existing logs, caches and
    spools hold, so they recover with no migration."""

    def test_wal_record(self):
        assert encode_record(5, "Nop.r#n0(Ins.ä#n1)") == (
            b"R 5 19 2949982860\nNop.r#n0(Ins.\xc3\xa4#n1)\n"
        )

    def test_ship_frame(self):
        frame = encode_frame("record", {"doc_id": "a", "seq": 1, "text": "Nop.r#n0"})
        assert frame == (
            b'F record 45 3842586321\n{"doc_id": "a", "seq": 1, "text": "Nop.r#n0"}\n'
        )

    def test_wire_message(self):
        assert encode_message({"op": "ping", "id": 7}) == (
            b'M 23 2877480014\n{"id": 7, "op": "ping"}\n'
        )

    def test_cache_segment(self, tmp_path):
        path = tmp_path / "seg-3.log"
        create_segment(path, 3)
        records, end = append_records(path, ['{"op":"del","k":"x"}', "é"], 1, number=3)
        assert path.read_bytes() == (
            b'CSEGv1 3\nR 1 20 2209928808\n{"op":"del","k":"x"}\nR 2 2 235179326\n\xc3\xa9\n'
        )
        assert end == 67
        assert [(r.offset, r.length, r.crc) for r in records] == [
            (27, 20, 2209928808),
            (64, 2, 235179326),
        ]
        assert records[0].crc == zlib.crc32(b'{"op":"del","k":"x"}')
