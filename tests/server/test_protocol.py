"""The wire framing: WAL discipline applied to request/response JSON.

Torn final message = peer death, wait for the rest; damaged interior
message = drop the connection. Exactly the log's failure model.
"""

import socket
import threading
import zlib

import pytest

from repro.errors import ProtocolError
from repro.server import ServeClient
from repro.server.protocol import (
    MAX_MESSAGE_BYTES,
    decode_messages,
    encode_message,
)


class TestFraming:
    def test_roundtrip(self):
        wire = encode_message({"op": "ping", "id": 7})
        messages, consumed = decode_messages(wire)
        assert messages == [{"op": "ping", "id": 7}]
        assert consumed == len(wire)

    def test_multiple_messages_in_one_buffer(self):
        wire = b"".join(encode_message({"n": n}) for n in range(5))
        messages, consumed = decode_messages(wire)
        assert [m["n"] for m in messages] == [0, 1, 2, 3, 4]
        assert consumed == len(wire)

    def test_header_is_self_describing(self):
        wire = encode_message({"a": 1})
        header, body, trailer = wire.split(b"\n", 2)
        tag, length, crc = header.split(b" ")
        assert tag == b"M"
        assert int(length) == len(body)
        assert int(crc) == zlib.crc32(body)

    def test_interior_corruption_is_fatal(self):
        first = bytearray(encode_message({"n": 1}))
        first[len(first) // 2] ^= 0xFF  # flip a payload byte
        data = bytes(first) + encode_message({"n": 2})
        with pytest.raises(ProtocolError, match="checksum|header|payload"):
            decode_messages(data)

    def test_garbage_header_is_fatal(self):
        with pytest.raises(ProtocolError, match="header"):
            decode_messages(b"GET /metrics HTTP/1.1\nmore\n")

    def test_non_object_payload_is_refused(self):
        body = b"[1, 2]"
        wire = (
            f"M {len(body)} {zlib.crc32(body)}\n".encode() + body + b"\n"
        )
        with pytest.raises(ProtocolError, match="not an object"):
            decode_messages(wire)

    def test_oversized_declaration_is_refused(self):
        wire = f"M {MAX_MESSAGE_BYTES + 1} 0\n".encode() + b"x"
        with pytest.raises(ProtocolError, match="frame limit"):
            decode_messages(wire)


class TestServeClient:
    def test_answers_arriving_in_one_segment_are_all_kept(self):
        """A peer may deliver several framed answers in one segment; the
        client must hand each to the request it answers, not drop all
        but the first."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def peer():
            conn, _ = listener.accept()
            with conn:
                received = b""
                while not decode_messages(received)[0]:
                    received += conn.recv(65536)
                conn.sendall(
                    encode_message({"ok": True, "result": {"n": 1}})
                    + encode_message({"ok": True, "result": {"n": 2}})
                )
                while conn.recv(65536):  # until the client hangs up
                    pass

        thread = threading.Thread(target=peer, daemon=True)
        thread.start()
        try:
            with ServeClient("127.0.0.1", port, timeout=10.0) as client:
                assert client.request("ping") == {"n": 1}
                assert client.request("ping") == {"n": 2}
        finally:
            thread.join(timeout=10.0)
            listener.close()
