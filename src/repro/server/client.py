"""A small blocking client for the framed serving protocol.

For tests, benchmarks, and scripting — one socket, sequential
request/response, the same framing (and the same torn-vs-corrupt
semantics) as the server. A failed request raises
:class:`RemoteServingError` carrying the server's typed error payload,
so callers can switch on ``error.code`` exactly as local callers
switch on exception types.
"""

from __future__ import annotations

import socket
from collections import deque

from ..errors import ProtocolError, ServerError
from .protocol import decode_messages, encode_message

__all__ = ["ServeClient", "RemoteServingError"]


class RemoteServingError(ServerError):
    """The server answered a request with a typed error payload."""

    def __init__(self, payload: dict) -> None:
        self.code = payload.get("code", "error")
        self.remote_type = payload.get("type", "ReproError")
        self.remote_exit_code = payload.get("exit_code", 1)
        self.trace_id = payload.get("trace_id")
        super().__init__(
            f"server answered {self.code}[{self.remote_type}]: "
            f"{payload.get('message', '')}"
            + (f" (trace {self.trace_id})" if self.trace_id else "")
        )
        self.payload = payload


class ServeClient:
    """One framed connection to a :class:`~repro.server.ReproServer`."""

    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._buffer = bytearray()
        # answers decoded from the buffer but not yet returned: one recv
        # may carry several frames
        self._answers: "deque[dict]" = deque()
        #: ``trace_id`` of the last answered request (``None`` when the
        #: server traces nothing and the caller supplied none) — look it
        #: up in the server's ``/debug/traces`` to see where time went.
        self.last_trace_id: "str | None" = None

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _read_response(self) -> dict:
        while not self._answers:
            messages, consumed = decode_messages(bytes(self._buffer))
            if messages:
                del self._buffer[:consumed]
                self._answers.extend(messages)
                continue
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ProtocolError(
                    "server closed the connection before answering"
                )
            self._buffer.extend(chunk)
        return self._answers.popleft()

    def request(self, op: str, **fields) -> dict:
        """One round trip; returns the result payload or raises
        :class:`RemoteServingError` with the server's error."""
        self._sock.sendall(encode_message({"op": op, **fields}))
        response = self._read_response()
        self.last_trace_id = response.get("trace_id")
        if response.get("ok"):
            return response.get("result", {})
        raise RemoteServingError(response.get("error", {}))

    # convenience wrappers -------------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def propagate(self, doc: str, update: str, **fields) -> dict:
        return self.request("propagate", doc=doc, update=update, **fields)

    def view(self, doc: str, **fields) -> dict:
        return self.request("view", doc=doc, **fields)

    def stats(self) -> dict:
        return self.request("stats")
