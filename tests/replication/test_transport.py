"""Ship-frame framing and the three carriers.

The framing shares the WAL's failure model: an incomplete final frame
is "not yet received", interior damage is fatal. Each carrier —
in-process queue, OS socket stream, append-only spool file — must
deliver exactly the frames that were completely sent, in order,
whatever the kill point.
"""

import pytest

from repro.errors import ReplicationError
from repro.replication import (
    FileSpoolTransport,
    QueueTransport,
    SocketTransport,
    decode_frames,
    encode_frame,
)

PAYLOADS = [
    {"doc_id": "a", "seq": 1, "text": "Nop.r#n0"},
    {"doc_id": "a", "seq": 2, "text": "Nop.r#n0(Del.a#n1)"},
    {"doc_id": "b", "seq": 1, "text": "Nop.r#n9"},
]


class TestFraming:
    def test_round_trip(self):
        data = b"".join(encode_frame("record", p) for p in PAYLOADS)
        frames, consumed = decode_frames(data)
        assert consumed == len(data)
        assert [f.payload for f in frames] == PAYLOADS
        assert {f.kind for f in frames} == {"record"}

    def test_unknown_kind_is_refused_at_encode_time(self):
        with pytest.raises(ReplicationError, match="unknown frame kind"):
            encode_frame("gossip", {})

    def test_interior_corruption_is_fatal(self):
        first = bytearray(encode_frame("record", PAYLOADS[0]))
        first[-3] ^= 0xFF  # flip a payload byte: checksum now fails
        data = bytes(first) + encode_frame("record", PAYLOADS[1])
        with pytest.raises(ReplicationError, match="interior corruption"):
            decode_frames(data)

    def test_garbage_header_is_fatal(self):
        with pytest.raises(ReplicationError, match="malformed ship frame"):
            decode_frames(b"not a frame\n" + encode_frame("record", PAYLOADS[0]))

    def test_non_object_payload_is_refused(self):
        import json
        import zlib

        body = json.dumps([1, 2, 3]).encode()
        raw = (
            f"F record {len(body)} {zlib.crc32(body)}\n".encode()
            + body
            + b"\n"
        )
        with pytest.raises(ReplicationError, match="not an object"):
            decode_frames(raw)


class TestQueueTransport:
    def test_send_drain_in_order(self):
        queue = QueueTransport()
        for payload in PAYLOADS:
            queue.send("record", payload)
        frames = queue.drain()
        assert [f.payload for f in frames] == PAYLOADS
        assert queue.drain() == []
        assert (queue.sent, queue.received) == (3, 3)


class TestSocketTransport:
    def test_frames_survive_the_byte_stream(self):
        sock = SocketTransport()
        try:
            for payload in PAYLOADS:
                sock.send("record", payload)
            frames = sock.drain()
            assert [f.payload for f in frames] == PAYLOADS
        finally:
            sock.close()

    def test_partial_send_stays_buffered_until_completed(self):
        sock = SocketTransport()
        try:
            whole = encode_frame("record", PAYLOADS[0])
            sock._send_sock.sendall(whole[:10])
            assert sock.drain() == []  # half a frame: nothing to apply
            sock._send_sock.sendall(whole[10:])
            frames = sock.drain()
            assert [f.payload for f in frames] == [PAYLOADS[0]]
        finally:
            sock.close()


class TestFileSpoolTransport:
    def test_drain_advances_past_only_complete_frames(self, tmp_path):
        spool = FileSpoolTransport(tmp_path / "s.spool")
        spool.send("record", PAYLOADS[0])
        spool.send("record", PAYLOADS[1])
        reader = FileSpoolTransport(tmp_path / "s.spool")
        assert [f.payload for f in reader.drain()] == PAYLOADS[:2]
        assert reader.drain() == []  # offset remembered
        spool.send("record", PAYLOADS[2])
        assert [f.payload for f in reader.drain()] == [PAYLOADS[2]]

    def test_missing_spool_reads_as_empty(self, tmp_path):
        assert FileSpoolTransport(tmp_path / "nope.spool").drain() == []

    def test_kill_mid_append_hides_the_torn_frame(self, tmp_path):
        path = tmp_path / "s.spool"
        spool = FileSpoolTransport(path)
        spool.send("record", PAYLOADS[0])
        spool.send("record", PAYLOADS[1])
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # the shipper died mid-record
        reader = FileSpoolTransport(path)
        assert [f.payload for f in reader.drain()] == [PAYLOADS[0]]

    def test_resumed_shipping_repairs_the_torn_tail(self, tmp_path):
        path = tmp_path / "s.spool"
        spool = FileSpoolTransport(path)
        spool.send("record", PAYLOADS[0])
        spool.send("record", PAYLOADS[1])
        path.write_bytes(path.read_bytes()[:-7])
        resumed = FileSpoolTransport(path)
        resumed.send("record", PAYLOADS[2])  # truncates the torn frame first
        reader = FileSpoolTransport(path)
        assert [f.payload for f in reader.drain()] == [PAYLOADS[0], PAYLOADS[2]]

    def test_tail_repair_reads_frames_without_decoding_payloads(
        self, tmp_path, monkeypatch
    ):
        from repro.replication import transport

        path = tmp_path / "s.spool"
        spool = FileSpoolTransport(path)
        spool.send("record", PAYLOADS[0])
        path.write_bytes(path.read_bytes() + encode_frame("record", PAYLOADS[1])[:-7])

        def no_decode(data):
            raise AssertionError("tail repair decoded the spool's payloads")

        monkeypatch.setattr(transport, "decode_frames", no_decode)
        FileSpoolTransport(path).send("record", PAYLOADS[2])
        monkeypatch.undo()
        reader = FileSpoolTransport(path)
        assert [f.payload for f in reader.drain()] == [PAYLOADS[0], PAYLOADS[2]]

    def test_interior_corruption_refuses_the_append(self, tmp_path):
        path = tmp_path / "s.spool"
        spool = FileSpoolTransport(path)
        spool.send("record", PAYLOADS[0])
        spool.send("record", PAYLOADS[1])
        data = bytearray(path.read_bytes())
        data[data.index(b"Nop.r#n0")] ^= 0x01  # a flipped byte in frame 1
        path.write_bytes(bytes(data))
        with pytest.raises(ReplicationError, match="interior corruption"):
            FileSpoolTransport(path).send("record", PAYLOADS[2])
        assert path.read_bytes() == bytes(data)  # nothing truncated or appended

    def test_rewind_replays_from_the_start(self, tmp_path):
        spool = FileSpoolTransport(tmp_path / "s.spool")
        spool.send("record", PAYLOADS[0])
        reader = FileSpoolTransport(tmp_path / "s.spool")
        assert len(reader.drain()) == 1
        reader.rewind()
        assert len(reader.drain()) == 1

    def test_shorter_rewritten_spool_restarts_the_reader(self, tmp_path):
        path = tmp_path / "s.spool"
        spool = FileSpoolTransport(path)
        for payload in PAYLOADS:
            spool.send("record", payload)
        reader = FileSpoolTransport(path)
        assert len(reader.drain()) == 3
        path.unlink()
        fresh = FileSpoolTransport(path)
        fresh.send("record", PAYLOADS[0])
        assert [f.payload for f in reader.drain()] == [PAYLOADS[0]]
