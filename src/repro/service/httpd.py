"""A deliberately small asyncio HTTP/1.1 layer for the sweep service.

The package's one runtime dependency is numpy; pulling in a web
framework for five JSON endpoints would be the tail wagging the dog.
This module implements exactly the slice of HTTP the service needs on
top of ``asyncio.start_server``:

* request parsing (request line, headers, ``Content-Length`` bodies)
  with hard size limits and a read deadline (a client that has not
  sent its whole request within :data:`REQUEST_READ_SECONDS` gets a
  ``408`` and is disconnected); a target that does not split as a URL
  or a ``Content-Length`` that is not ASCII digits is a ``400``;
* pattern routing (``/sweeps/{job_id}/rows`` style placeholders);
* JSON responses (a handler returns ``(status, payload)``);
* chunked NDJSON streaming (a handler declared with ``stream=True``
  returns an async iterator of JSON-able objects, each written as one
  ``application/x-ndjson`` line the moment it is yielded);
* uniform JSON error bodies via :class:`HTTPError`.

Connections are single-request (``Connection: close``): every client
of this service either polls (cheap reconnects) or holds one long
streaming response, so keep-alive buys nothing but parser state.
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
from dataclasses import dataclass, field
from typing import AsyncIterator, Awaitable, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

#: Upper bounds a request must fit in (a sweep-spec payload is a few
#: kilobytes; anything bigger than these is not a legitimate client).
MAX_BODY_BYTES = 4 * 1024 * 1024
MAX_LINE_BYTES = 64 * 1024
MAX_HEADERS = 100

#: Seconds a client has to send its whole request (request line,
#: headers and body); without it, a client that stops mid-request
#: would hold its connection forever.  Responses, including long NDJSON
#: row streams, are not bounded by it.
REQUEST_READ_SECONDS = 10.0

_PHRASES = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

_logger = logging.getLogger(__name__)


class HTTPError(Exception):
    """Abort request handling with an HTTP status and JSON detail."""

    def __init__(self, status: int, message: str):
        self.status = status
        self.message = message
        super().__init__(f"{status}: {message}")


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes
    #: Captures of the matched route's ``{placeholder}`` segments.
    params: Dict[str, str] = field(default_factory=dict)

    def json(self) -> object:
        """The request body parsed as JSON (400 on malformed input).

        ``NaN``, ``Infinity`` and ``-Infinity`` are not JSON, although
        Python's parser accepts them by default; they are rejected too.
        """
        if not self.body:
            return {}
        try:
            return json.loads(
                self.body.decode("utf-8"), parse_constant=_reject_constant
            )
        except (UnicodeDecodeError, ValueError) as error:
            raise HTTPError(400, f"request body is not valid JSON: {error}")


def _reject_constant(name: str) -> object:
    raise ValueError(f"{name} is not a JSON value")


#: A JSON handler returns (status, payload); a stream handler returns
#: an async iterator of JSON-able objects (one NDJSON line each).
JSONHandler = Callable[[Request], Awaitable[Tuple[int, object]]]
StreamHandler = Callable[[Request], AsyncIterator[object]]


@dataclass(frozen=True)
class _Route:
    method: str
    pattern: "re.Pattern[str]"
    handler: Callable
    stream: bool


def _compile_pattern(pattern: str) -> "re.Pattern[str]":
    parts = re.split(r"(\{[a-zA-Z_]\w*\})", pattern)
    regex = "".join(
        f"(?P<{part[1:-1]}>[^/]+)"
        if part.startswith("{") and part.endswith("}")
        else re.escape(part)
        for part in parts
    )
    return re.compile(f"^{regex}$")


class Router:
    """Method + path-pattern dispatch table."""

    def __init__(self) -> None:
        self._routes: List[_Route] = []

    def add(
        self,
        method: str,
        pattern: str,
        handler: Callable,
        stream: bool = False,
    ) -> None:
        self._routes.append(
            _Route(method.upper(), _compile_pattern(pattern), handler, stream)
        )

    def match(
        self, method: str, path: str
    ) -> Tuple[Optional[_Route], Optional[Dict[str, str]], List[str]]:
        """Resolve a request; returns (route, params, methods-for-path).

        ``route`` is None when nothing matched; ``methods-for-path``
        then distinguishes 404 (empty) from 405 (other methods serve
        this path).
        """
        allowed: List[str] = []
        for route in self._routes:
            found = route.pattern.match(path)
            if found is None:
                continue
            if route.method == method.upper():
                return route, found.groupdict(), allowed
            allowed.append(route.method)
        return None, None, allowed


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One line off the wire; 400 once it outgrows the stream's limit
    (:data:`MAX_LINE_BYTES`, which the servers pass to
    ``asyncio.start_server``)."""
    try:
        return await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise HTTPError(400, f"{what} too long")


def _body_length(headers: Dict[str, str]) -> int:
    """The body length a request declares; 0 without ``Content-Length``.

    The value must be ASCII digits: ``int()`` alone would also take
    ``+5``, ``1_0`` and non-ASCII digits such as ``٣``.
    """
    value = headers.get("content-length")
    if value is None:
        return 0
    if not (value.isascii() and value.isdigit()):
        raise HTTPError(400, "malformed Content-Length")
    digits = value.lstrip("0") or "0"
    # More digits than the cap has is past the cap (and may be past what
    # int() converts).
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
        raise HTTPError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    return int(digits)


async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the wire (None on a closed connection)."""
    request_line = await _read_line(reader, "request line")
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HTTPError(400, "malformed request line")
    method, target, _version = parts
    try:
        split = urlsplit(target)
    except ValueError:  # e.g. an unclosed IPv6 bracket
        raise HTTPError(400, "malformed request target")
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS):
        line = await _read_line(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise HTTPError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HTTPError(400, "too many headers")
    length = _body_length(headers)
    body = await reader.readexactly(length) if length else b""
    return Request(
        method=method.upper(),
        path=unquote(split.path),
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


def _json_bytes(payload: object) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


def _head(status: int, content_type: str, extra: str = "") -> bytes:
    phrase = _PHRASES.get(status, "Unknown")
    return (
        f"HTTP/1.1 {status} {phrase}\r\n"
        f"Content-Type: {content_type}\r\n"
        "Connection: close\r\n"
        f"{extra}\r\n"
    ).encode("latin-1")


class HTTPServer:
    """Route-dispatching connection handler over ``asyncio`` streams."""

    def __init__(self, router: Router):
        self.router = router

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/response
        except Exception:  # noqa: BLE001 — a connection never kills the server
            _logger.exception("unhandled error on connection")
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await asyncio.wait_for(
                _read_request(reader), REQUEST_READ_SECONDS
            )
        except HTTPError as error:
            await self._write_json(
                writer, error.status, {"error": error.message}
            )
            return
        except asyncio.TimeoutError:
            await self._write_json(
                writer,
                408,
                {"error": f"request not received within {REQUEST_READ_SECONDS} s"},
            )
            return
        if request is None:
            return
        route, params, allowed = self.router.match(request.method, request.path)
        if route is None:
            if allowed:
                await self._write_json(
                    writer,
                    405,
                    {"error": f"use {', '.join(sorted(set(allowed)))}"},
                    extra=f"Allow: {', '.join(sorted(set(allowed)))}\r\n",
                )
            else:
                await self._write_json(
                    writer, 404, {"error": f"no route for {request.path}"}
                )
            return
        request.params = params or {}
        if route.stream:
            await self._run_stream(writer, route, request)
        else:
            await self._run_json(writer, route, request)

    async def _run_json(
        self, writer: asyncio.StreamWriter, route: _Route, request: Request
    ) -> None:
        try:
            status, payload = await route.handler(request)
        except HTTPError as error:
            status, payload = error.status, {"error": error.message}
        except Exception as error:  # noqa: BLE001 — surface as 500
            _logger.exception(
                "handler for %s %s failed", request.method, request.path
            )
            status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
        await self._write_json(writer, status, payload)

    async def _run_stream(
        self, writer: asyncio.StreamWriter, route: _Route, request: Request
    ) -> None:
        """Chunked NDJSON: each yielded object becomes one line-chunk."""
        try:
            stream = route.handler(request)
        except HTTPError as error:
            await self._write_json(writer, error.status, {"error": error.message})
            return
        headers_sent = False
        try:
            async for item in stream:
                if not headers_sent:
                    writer.write(
                        _head(
                            200,
                            "application/x-ndjson; charset=utf-8",
                            "Transfer-Encoding: chunked\r\n",
                        )
                    )
                    headers_sent = True
                self._write_chunk(writer, _json_bytes(item))
                await writer.drain()
        except HTTPError as error:
            if not headers_sent:
                await self._write_json(
                    writer, error.status, {"error": error.message}
                )
                return
            self._write_chunk(
                writer, _json_bytes({"kind": "error", "error": error.message})
            )
        except Exception as error:  # noqa: BLE001 — mid-stream failure
            _logger.exception(
                "stream for %s %s failed", request.method, request.path
            )
            if not headers_sent:
                await self._write_json(
                    writer,
                    500,
                    {"error": f"{type(error).__name__}: {error}"},
                )
                return
            self._write_chunk(
                writer,
                _json_bytes(
                    {"kind": "error", "error": f"{type(error).__name__}: {error}"}
                ),
            )
        if not headers_sent:
            # An empty stream is still a successful (contentless) response.
            writer.write(
                _head(
                    200,
                    "application/x-ndjson; charset=utf-8",
                    "Transfer-Encoding: chunked\r\n",
                )
            )
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    @staticmethod
    def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
        writer.write(f"{len(data):x}\r\n".encode("latin-1"))
        writer.write(data)
        writer.write(b"\r\n")

    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: object,
        extra: str = "",
    ) -> None:
        body = _json_bytes(payload)
        writer.write(
            _head(
                status,
                "application/json; charset=utf-8",
                f"Content-Length: {len(body)}\r\n{extra}",
            )
        )
        writer.write(body)
        await writer.drain()


__all__ = [
    "HTTPError",
    "HTTPServer",
    "MAX_BODY_BYTES",
    "Request",
    "Router",
]
