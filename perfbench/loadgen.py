"""Closed-loop HTTP/1.1 load over raw keep-alive sockets.

One process, no extra threads: a ``selectors`` loop drives ``n``
persistent connections.  Each connection has at most one request in
flight and sends its next one only when the previous answer is
complete, as a node resource manager waiting on the advisor would.

Requests arrive pre-encoded (:class:`Call.wire`).  On the clock the
loop only frames responses by ``Content-Length`` and keeps the raw
status and body; parsing and checking happen after the timed window.
"""

from __future__ import annotations

import gc
import selectors
import socket
import time

_HEADER_END = b"\r\n\r\n"
_LENGTH = b"Content-Length: "


class Call:
    """One request: pre-encoded bytes in, raw status/body/latency out."""

    __slots__ = ("wire", "meta", "t0", "latency_s", "status", "body")

    def __init__(self, wire: bytes, meta=None) -> None:
        self.wire = wire
        self.meta = meta
        self.t0 = 0.0
        self.latency_s = 0.0
        self.status = 0
        self.body = b""


class Client:
    """``n`` keep-alive connections to one server."""

    def __init__(self, host: str, port: int, n: int) -> None:
        self.socks = []
        for _ in range(n):
            sock = socket.create_connection((host, port), timeout=30.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.socks.append(sock)
        self.selector = selectors.DefaultSelector()
        for i, sock in enumerate(self.socks):
            self.selector.register(sock, selectors.EVENT_READ, i)

    @property
    def n(self) -> int:
        return len(self.socks)

    def close(self) -> None:
        self.selector.close()
        for sock in self.socks:
            sock.close()

    def run(self, next_call, *, deadline: float | None = None):
        """Drive the closed loop; returns ``(completed calls, elapsed s)``.

        ``next_call(conn_index)`` returns the connection's next
        :class:`Call` or None when it has no more work.  With a
        ``deadline`` (a ``time.perf_counter`` instant) no call is sent
        after it; calls in flight still complete and count.  The
        collector is off meanwhile: the loop makes no reference cycles,
        and a collection pause would land in some call's latency.
        """
        gc.collect()
        gc.disable()
        try:
            return self._run(next_call, deadline)
        finally:
            gc.enable()

    def _run(self, next_call, deadline):
        clock = time.perf_counter
        socks = self.socks
        bufs = [bytearray() for _ in socks]
        inflight: list[Call | None] = [None] * len(socks)
        done: list[Call] = []

        def send(ci: int) -> bool:
            if deadline is not None and clock() >= deadline:
                return False
            call = next_call(ci)
            if call is None:
                return False
            inflight[ci] = call
            call.t0 = clock()
            socks[ci].sendall(call.wire)
            return True

        started = clock()
        active = sum(send(ci) for ci in range(len(socks)))
        while active:
            events = self.selector.select(30.0)
            if not events:
                raise TimeoutError("no response from the server in 30 s")
            for key, _ in events:
                ci = key.data
                chunk = socks[ci].recv(1 << 18)
                if not chunk:
                    raise ConnectionError(f"server closed connection {ci}")
                buf = bufs[ci]
                buf += chunk
                end = buf.find(_HEADER_END)
                if end < 0:
                    continue
                at = buf.find(_LENGTH, 0, end) + len(_LENGTH)
                length = int(buf[at:buf.index(b"\r\n", at)])
                total = end + 4 + length
                if len(buf) < total:
                    continue
                call = inflight[ci]
                call.latency_s = clock() - call.t0
                call.status = int(buf[9:12])
                call.body = bytes(buf[end + 4:total])
                del buf[:total]
                inflight[ci] = None
                done.append(call)
                if not send(ci):
                    active -= 1
        return done, clock() - started
