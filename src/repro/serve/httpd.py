"""The HTTP/1.1 subset ``pdw serve`` speaks, on :mod:`socketserver`.

``http.server`` parses headers with the ``email`` package and imports
``http.client`` (and with it ``ssl``); every job child forked from the
server would carry those pages for a JSON API that needs none of them.
This module is the part of HTTP the API uses:

* HTTP/1.1 keep-alive; ``Connection: close`` or an HTTP/1.0 request
  closes the connection after the response;
* request bodies framed by ``Content-Length`` only: a non-integer or
  negative length is a 400, any ``Transfer-Encoding`` a 501;
* header names are matched case-insensitively (:attr:`Handler.headers`
  holds them lower-cased);
* ``Expect: 100-continue`` is answered when the handler reads the body;
* a request line over :data:`MAX_LINE` bytes is a 414, a longer header
  line or more than :data:`MAX_HEADERS` headers a 431;
* a method without a ``do_<METHOD>`` is a 501.

A request whose body the handler did not read closes its connection,
so a body can never be parsed as the next request; a client that goes
away mid-request just ends its connection.
"""

from __future__ import annotations

import socketserver
from http import HTTPStatus
from typing import Dict, Optional

#: Longest request or header line, in bytes, before the terminator.
MAX_LINE = 65536

#: Most header lines one request may carry.
MAX_HEADERS = 100


class Server(socketserver.ThreadingTCPServer):
    """One daemon thread per connection, tuned for burst traffic.

    The stdlib default listen backlog is 5; a 50-submission burst (the CI
    serve job's shape) overflows that and the kernel resets the excess
    connections before a handler thread ever sees them.  The backlog only
    holds sockets awaiting ``accept()`` — handler threads drain it fast —
    so a deep backlog costs nothing in steady state.
    """

    request_queue_size = 128
    daemon_threads = True
    allow_reuse_address = True


class _Reject(Exception):
    """A request that cannot be served; its connection closes."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class Handler(socketserver.StreamRequestHandler):
    """Reads requests off one connection and calls ``do_<METHOD>``.

    A ``do_`` method sees :attr:`path`, :attr:`headers`,
    :attr:`content_length` and :meth:`read_body`, and answers with
    :meth:`send`; protocol errors go through :meth:`_error`, which a
    subclass may override to shape them.
    """

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                self._handle_one()
        except ConnectionError:
            pass  # the client went away; nothing is left to answer

    def _handle_one(self) -> None:
        self._unread = 0
        self._expect_continue = False
        try:
            method = self._read_head()
        except _Reject as exc:
            self.close_connection = True
            self._error(exc.code, str(exc))
            return
        if method is None:
            self.close_connection = True
            return
        handler = getattr(self, f"do_{method}", None)
        if handler is None:
            self._error(501, f"unsupported method {method!r}")
        else:
            handler()

    def _read_head(self) -> Optional[str]:
        """Parse the request line and headers; the method, or ``None``
        when the client closed the connection first."""
        line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            return None
        if len(line) > MAX_LINE:
            raise _Reject(414, f"request line exceeds {MAX_LINE} bytes")
        words = line.decode("latin-1").split()
        if len(words) != 3:
            raise _Reject(400, f"malformed request line {line[:80]!r}")
        method, self.path, version = words
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            raise _Reject(505, f"unsupported protocol version {version[:20]!r}")
        headers: Dict[str, str] = {}
        for count in range(MAX_HEADERS + 1):
            line = self.rfile.readline(MAX_LINE + 1)
            if not line:
                return None  # the client went away mid-request
            if line in (b"\r\n", b"\n"):
                break
            if len(line) > MAX_LINE:
                raise _Reject(431, f"header line exceeds {MAX_LINE} bytes")
            if count == MAX_HEADERS:
                raise _Reject(431, f"more than {MAX_HEADERS} headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep or not name or name != name.strip():
                raise _Reject(400, f"malformed header line {line[:80]!r}")
            name = name.lower()
            value = value.strip()
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        self.headers = headers
        if "transfer-encoding" in headers:
            raise _Reject(501, "Transfer-Encoding is not supported; send Content-Length")
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            raise _Reject(400, f"invalid Content-Length {length[:20]!r}")
        self.content_length = self._unread = int(length)
        self._expect_continue = headers.get("expect", "").lower() == "100-continue"
        if version == "HTTP/1.0" or "close" in headers.get("connection", "").lower():
            self.close_connection = True
        return method

    def read_body(self) -> bytes:
        """The request body (``Content-Length`` bytes), read once."""
        if self._expect_continue:
            self._expect_continue = False
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(self._unread)
        if len(body) < self._unread:
            raise ConnectionResetError("client closed the connection mid-body")
        self._unread = 0
        return body

    def send(self, code: int, body: bytes, headers: Dict[str, str]) -> None:
        """Write one whole response: status, ``headers``, length, body."""
        if self._unread:
            self.close_connection = True  # the unread body would read as a request
        lines = [f"HTTP/1.1 {code} {HTTPStatus(code).phrase}"]
        lines += [f"{key}: {value}" for key, value in headers.items()]
        lines.append(f"Content-Length: {len(body)}")
        if self.close_connection:
            lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        self.wfile.write(head.encode("latin-1") + body)

    def _error(self, code: int, message: str) -> None:
        self.send(code, f"{message}\n".encode(), {"Content-Type": "text/plain; charset=utf-8"})
