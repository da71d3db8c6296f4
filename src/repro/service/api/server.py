"""The analysis server's HTTP/1.1 front end (stdlib asyncio, no deps).

One asyncio loop serves every endpoint; blocking work (simulation, EVT
fits) happens on the job manager's worker threads, and progress flows back
through the :class:`~repro.service.services.events.EventBus`.  The protocol
layer is deliberately small: HTTP/1.1 with ``Connection: close``, JSON
request/response bodies, plus one streaming endpoint
(``GET /v1/jobs/<id>/events``) speaking Server-Sent Events.

Routes::

    GET  /                    service banner + route list
    GET  /v1/status           service + queue/worker state
    GET  /v1/engines          engine capability matrix
    GET  /v1/estimators       EVT estimator registry
    POST /v1/jobs             submit a scenario spec or sweep -> 202 + job id
    GET  /v1/jobs             all jobs (summaries)
    GET  /v1/jobs/<id>        job status / results
    GET  /v1/jobs/<id>/events SSE progress stream (replay + live)
    POST /v1/gc               sweep derived entries now (or dry-run plan)
    POST /v1/shutdown         clean shutdown
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading
import time
from typing import Awaitable, Callable, Dict, Optional, Tuple

from ...engine import engine_capabilities
from ...exec.status import exec_status_snapshot
from ...pwcet import estimator_capabilities
from ...study.store import ResultStore, check_gc_age
from ..services.events import EventBus, StoreWatcher
from ..services.gc import DEFAULT_GC_AGE, DEFAULT_GC_INTERVAL, GcService
from ..services.jobs import BadRequest, JobManager

__all__ = ["ReproServer", "DEFAULT_HOST", "DEFAULT_PORT"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: Largest accepted request body (sweeps are specs, not traces — 8 MiB is
#: thousands of scenarios).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: SSE keepalive comment interval while a stream is idle.
SSE_KEEPALIVE = 15.0


class _HttpError(Exception):
    """An error with a definite HTTP answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _response_bytes(status: int, body: bytes, content_type: str) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


class ReproServer:
    """The ``python -m repro serve`` server: API + services over one store."""

    def __init__(
        self,
        store: ResultStore,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        jobs: int = 1,
        shard_size: Optional[int] = None,
        concurrency: int = 2,
        gc_interval: float = DEFAULT_GC_INTERVAL,
        gc_age: float = DEFAULT_GC_AGE,
        watch_interval: float = 0.25,
    ) -> None:
        # The registries fill on first use; fill them here, before the
        # server's threads start, so no request or job thread imports the
        # engines or the estimators.
        engine_capabilities()
        estimator_capabilities()
        self.store = store
        self.host = host
        self.port = port
        self.bus = EventBus()
        self.manager = JobManager(
            store, self.bus, jobs=jobs, shard_size=shard_size, concurrency=concurrency
        )
        self.watcher = StoreWatcher(
            store, self.bus, self.manager.channels_for_spec, interval=watch_interval
        )
        self.gc = GcService(store, self.bus, interval=gc_interval, older_than=gc_age)
        self.started_at = time.time()
        #: Set once the listening socket is bound; carries the real port
        #: when the server was started with ``port=0`` (tests).
        self.ready = threading.Event()
        self.bound_port: Optional[int] = None
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # ------------------------------------------------------------ lifecycle

    def run(self, quiet: bool = False) -> None:
        """Serve until ``POST /v1/shutdown`` (or SIGINT/SIGTERM)."""
        asyncio.run(self._serve(quiet=quiet))

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (used by signal handlers + API)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    async def _serve(self, quiet: bool = False) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop = asyncio.Event()
        self.bus.attach(loop)
        try:  # signal handlers are unavailable off the main thread (tests)
            import signal

            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, self._stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass

        server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.bound_port = server.sockets[0].getsockname()[1]
        self.ready.set()
        if not quiet:
            print(
                f"repro serve: listening on http://{self.host}:{self.bound_port} "
                f"(store: {self.store.root})",
                flush=True,
            )
        background = [
            asyncio.ensure_future(self.watcher.run(self._stop)),
            asyncio.ensure_future(self.gc.run(self._stop)),
        ]
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            for task in background:
                task.cancel()
            await asyncio.gather(*background, return_exceptions=True)
            # Waits out running jobs so their results land in the store.
            await loop.run_in_executor(None, self.manager.shutdown)
            self.ready.clear()
        if not quiet:
            print("repro serve: shut down", flush=True)

    # ------------------------------------------------------------- protocol

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as error:
                await self._write_json(
                    writer, error.status, {"error": error.message}
                )
                return
            await self._dispatch(method, path, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        finally:
            with contextlib.suppress(ConnectionError):
                if writer.can_write_eof():
                    writer.write_eof()
                writer.close()
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(400, "request head too large") from None
        except asyncio.IncompleteReadError:
            raise _HttpError(400, "truncated request") from None
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            raise _HttpError(400, f"invalid Content-Length: {raw_length!r}")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, body

    async def _write_json(
        self, writer: asyncio.StreamWriter, status: int, payload: Dict[str, object]
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        writer.write(_response_bytes(status, body, "application/json"))
        await writer.drain()

    # ------------------------------------------------------------- routing

    async def _dispatch(
        self, method: str, path: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        try:
            handler, args = self._route(method, path)
        except _HttpError as error:
            await self._write_json(writer, error.status, {"error": error.message})
            return
        try:
            await handler(writer, body, *args)
        except _HttpError as error:
            await self._write_json(writer, error.status, {"error": error.message})
        except Exception as error:  # never let a handler kill the server
            await self._write_json(
                writer, 500, {"error": f"{type(error).__name__}: {error}"}
            )

    def _route(
        self, method: str, path: str
    ) -> Tuple[Callable[..., Awaitable[None]], tuple]:
        segments = [segment for segment in path.split("/") if segment]
        if not segments:
            self._require(method, "GET", path)
            return self._handle_root, ()
        if segments[0] != "v1":
            raise _HttpError(404, f"unknown path: {path}")
        rest = segments[1:]
        if rest == ["status"]:
            self._require(method, "GET", path)
            return self._handle_status, ()
        if rest == ["engines"]:
            self._require(method, "GET", path)
            return self._handle_engines, ()
        if rest == ["estimators"]:
            self._require(method, "GET", path)
            return self._handle_estimators, ()
        if rest == ["jobs"]:
            if method == "POST":
                return self._handle_submit, ()
            self._require(method, "GET", path)
            return self._handle_jobs, ()
        if len(rest) == 2 and rest[0] == "jobs":
            self._require(method, "GET", path)
            return self._handle_job, (rest[1],)
        if len(rest) == 3 and rest[0] == "jobs" and rest[2] == "events":
            self._require(method, "GET", path)
            return self._handle_events, (rest[1],)
        if rest == ["gc"]:
            self._require(method, "POST", path)
            return self._handle_gc, ()
        if rest == ["shutdown"]:
            self._require(method, "POST", path)
            return self._handle_shutdown, ()
        raise _HttpError(404, f"unknown path: {path}")

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise _HttpError(405, f"{method} not allowed on {path}")

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, object]:
        if not body:
            return {}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise _HttpError(400, f"request body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    # ------------------------------------------------------------- handlers

    async def _handle_root(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        await self._write_json(
            writer,
            200,
            {
                "service": "repro",
                "store": str(self.store.root),
                "endpoints": [
                    "GET /v1/status",
                    "GET /v1/engines",
                    "GET /v1/estimators",
                    "POST /v1/jobs",
                    "GET /v1/jobs",
                    "GET /v1/jobs/<id>",
                    "GET /v1/jobs/<id>/events",
                    "POST /v1/gc",
                    "POST /v1/shutdown",
                ],
            },
        )

    async def _handle_status(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        loop = asyncio.get_running_loop()
        # The exec snapshot stats queue/store directories; off-loop to keep
        # the server responsive while a large store is scanned.
        exec_snapshot = await loop.run_in_executor(
            None, exec_status_snapshot, self.store
        )
        now = time.time()
        await self._write_json(
            writer,
            200,
            {
                "service": {
                    "host": self.host,
                    "port": self.bound_port,
                    "started_at": self.started_at,
                    "uptime_seconds": round(now - self.started_at, 3),
                    "jobs": self.manager.status_snapshot(),
                    "gc": self.gc.status_snapshot(),
                },
                "exec": exec_snapshot,
            },
        )

    async def _handle_engines(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        await self._write_json(writer, 200, {"engines": engine_capabilities()})

    async def _handle_estimators(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        await self._write_json(
            writer, 200, {"estimators": estimator_capabilities()}
        )

    async def _handle_submit(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        payload = self._json_body(body)
        try:
            job = self.manager.submit(payload)
        except BadRequest as error:
            raise _HttpError(400, str(error)) from None
        except RuntimeError as error:
            raise _HttpError(503, str(error)) from None
        await self._write_json(
            writer,
            202,
            {
                "job_id": job.job_id,
                "state": job.state,
                "scenarios": len(job.scenarios),
                "spec_hashes": job.spec_hashes,
            },
        )

    async def _handle_jobs(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        summaries = []
        for job in self.manager.jobs():
            summary = job.payload()
            summary.pop("results", None)  # keep the listing small
            summaries.append(summary)
        await self._write_json(writer, 200, {"jobs": summaries})

    def _job_or_404(self, job_id: str):
        job = self.manager.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job: {job_id}")
        return job

    async def _handle_job(
        self, writer: asyncio.StreamWriter, body: bytes, job_id: str
    ) -> None:
        await self._write_json(writer, 200, self._job_or_404(job_id).payload())

    async def _handle_events(
        self, writer: asyncio.StreamWriter, body: bytes, job_id: str
    ) -> None:
        """SSE stream: replay the job's history, then follow live events.

        The subscription is taken *before* the replay snapshot and events
        are deduplicated by sequence number, so nothing published between
        the two is lost or doubled.  The stream ends after the job's
        terminal event.
        """
        job = self._job_or_404(job_id)
        queue = self.bus.subscribe(job.job_id)
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n"
                b"\r\n"
            )
            await writer.drain()
            last_seq = 0
            finished = False
            for event in self.bus.history(job.job_id):
                last_seq = max(last_seq, event.seq)
                finished = finished or event.kind in ("job-completed", "job-failed")
                await self._write_sse(writer, event)
            while not finished:
                try:
                    event = await asyncio.wait_for(queue.get(), timeout=SSE_KEEPALIVE)
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\r\n\r\n")
                    await writer.drain()
                    continue
                if event.seq <= last_seq:
                    continue
                last_seq = event.seq
                finished = event.kind in ("job-completed", "job-failed")
                await self._write_sse(writer, event)
        finally:
            self.bus.unsubscribe(job.job_id, queue)

    async def _write_sse(self, writer: asyncio.StreamWriter, event) -> None:
        data = json.dumps(event.as_dict(), sort_keys=True)
        writer.write(
            f"id: {event.seq}\nevent: {event.kind}\ndata: {data}\n\n".encode("utf-8")
        )
        await writer.drain()

    async def _handle_gc(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        # Options are checked, not coerced: bool("false") is True and
        # float(True) is a one-second age.
        payload = self._json_body(body)
        older_than = payload.get("older_than")
        if older_than is not None:
            try:
                if isinstance(older_than, bool) or not isinstance(
                    older_than, (int, float)
                ):
                    raise ValueError(older_than)
                older_than = check_gc_age(float(older_than))
            except ValueError:
                raise _HttpError(
                    400,
                    f"older_than must be a finite number of seconds >= 0, "
                    f"got {older_than!r}",
                ) from None
        for flag in ("dry_run", "analyses_only"):
            value = payload.get(flag)
            if value is not None and not isinstance(value, bool):
                raise _HttpError(400, f"{flag} must be true or false, got {value!r}")
        analyses_only = payload.get("analyses_only")
        loop = asyncio.get_running_loop()
        if payload.get("dry_run"):
            candidates = await loop.run_in_executor(
                None, self.gc.plan, older_than, analyses_only
            )
            await self._write_json(
                writer, 200, {"dry_run": True, "candidates": candidates}
            )
            return
        removed = await loop.run_in_executor(
            None, self.gc.sweep_once, older_than, analyses_only
        )
        await self._write_json(writer, 200, {"dry_run": False, "removed": removed})

    async def _handle_shutdown(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        await self._write_json(writer, 202, {"state": "shutting-down"})
        self.request_shutdown()
