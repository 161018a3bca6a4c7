"""The HTTP/JSON front door: a raw-asyncio server over the dispatcher.

No web framework and no ``http.server`` — the protocol surface the
service needs (HTTP/1.1 keep-alive, JSON bodies, chunked streaming for
the event feed) is small enough to speak directly over
:func:`asyncio.start_server`, which keeps the whole subsystem inside the
stdlib-plus-numpy dependency budget of the repo.

Endpoints (see the README's service section for the curl quickstart):

==============================  =======================================
``POST /v1/schedule``           submit one ``ScheduleRequest`` → job id
``POST /v1/scenarios``          submit a full ``ScenarioSpec`` → job id
``GET /v1/jobs``                every job id with its current state
``GET /v1/jobs/{id}``           status (+ result once terminal)
``GET /v1/jobs/{id}/events``    chunked ndjson progress stream
``GET /v1/stats``               dispatcher/cache/backend counters
``GET /healthz``                liveness (``ok`` | ``draining``)
``POST /v1/shutdown``           graceful drain + exit (also SIGTERM)
==============================  =======================================

Graceful shutdown — whether triggered by ``POST /v1/shutdown``, SIGTERM,
or SIGINT — follows one sequence: new submissions start failing with 503
immediately, every accepted job runs to completion and lands durably in
the job store, event streams see their end events, and only then do the
listener, store, and cache close. A ``kill -9`` instead exercises the
store's crash contract: the next server reports the interrupted jobs as
``crashed`` and re-enqueues the ones that never started.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any, Dict, Optional, Tuple

from repro.service.dispatcher import Dispatcher, ServiceDraining
from repro.service.store import JobStore

#: request bodies above this are rejected with 413 (a full scenario spec
#: is a few KB; the ceiling only guards against nonsense)
MAX_BODY_BYTES = 64 * 1024 * 1024

#: listen backlog — must exceed the service burst gate's connection burst
LISTEN_BACKLOG = 2048

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


class ServiceApp:
    """One running service: store + cache + dispatcher + HTTP listener."""

    def __init__(self, store_dir: str, cache=None,
                 backend: Optional[str] = None, workers: int = 2,
                 parallel: int = 0):
        from repro.api.cache import open_cache

        self.store = JobStore(store_dir)
        self._own_cache = isinstance(cache, str)
        self.cache = open_cache(cache) if cache is not None else None
        self.dispatcher = Dispatcher(self.store, cache=self.cache,
                                     backend=backend, workers=workers,
                                     parallel=parallel)
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown_started = False
        self._done = asyncio.Event()
        self.recovered: Tuple[Tuple[str, ...], Tuple[str, ...]] = ((), ())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Recover the store, start workers, bind the listener."""
        requeued, crashed = await self.dispatcher.start()
        self.recovered = (tuple(requeued), tuple(crashed))
        self._server = await asyncio.start_server(
            self._handle, host=host, port=port, backlog=LISTEN_BACKLOG)

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`; 0 → ephemeral)."""
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.shutdown()))
            except NotImplementedError:  # non-unix event loops
                pass

    async def shutdown(self) -> None:
        """Drain everything, persist everything, then stop (idempotent)."""
        if self._shutdown_started:
            await self._done.wait()
            return
        self._shutdown_started = True
        await self.dispatcher.drain()
        await self.dispatcher.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.cache is not None and self._own_cache:
            self.cache.close()
        self.store.close()
        self._done.set()

    async def wait_closed(self) -> None:
        await self._done.wait()

    # ------------------------------------------------------------------
    # the connection loop
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return  # client closed the keep-alive connection
                except asyncio.LimitOverrunError:
                    await self._respond(writer, 431,
                                        {"error": "request head too large"},
                                        keep=False)
                    return
                try:
                    method, target, headers = self._parse_head(head)
                except ValueError as exc:
                    await self._respond(writer, 400, {"error": str(exc)},
                                        keep=False)
                    return
                raw_length = headers.get("content-length", "0") or "0"
                # the head is latin-1, whose only decimals are 0-9, so
                # this admits exactly what int() reads as a length >= 0
                if not raw_length.isdecimal():
                    await self._respond(
                        writer, 400,
                        {"error": f"bad Content-Length {raw_length!r}"},
                        keep=False)
                    return
                length = int(raw_length)
                if length > MAX_BODY_BYTES:
                    await self._respond(writer, 413,
                                        {"error": "request body too large"},
                                        keep=False)
                    return
                try:
                    body = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    return  # client hung up mid-body
                keep = headers.get("connection", "").lower() != "close"
                streamed = await self._route(method, target, body,
                                             writer, keep)
                if streamed or not keep:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001 — already torn down
                pass

    @staticmethod
    def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError as exc:
            raise ValueError("undecodable request head") from exc
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ValueError(f"malformed request line {lines[0]!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        return parts[0].upper(), parts[1], headers

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(self, method: str, target: str, body: bytes,
                     writer: asyncio.StreamWriter, keep: bool) -> bool:
        """Dispatch one request; returns True when the response streamed
        (the connection is finished either way then)."""
        path = target.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/healthz":
                if method != "GET":
                    return await self._method_not_allowed(writer, keep)
                stats = self.dispatcher.stats()
                await self._respond(writer, 200, {
                    "status": "draining" if self.dispatcher.draining
                    else "ok",
                    "uptime_s": stats["uptime_s"],
                    "jobs": stats["jobs"]}, keep=keep)
            elif path == "/v1/stats":
                if method != "GET":
                    return await self._method_not_allowed(writer, keep)
                await self._respond(writer, 200, self.dispatcher.stats(),
                                    keep=keep)
            elif path in ("/v1/schedule", "/v1/scenarios"):
                if method != "POST":
                    return await self._method_not_allowed(writer, keep)
                kind = "schedule" if path == "/v1/schedule" else "scenario"
                await self._submit(writer, kind, body, keep)
            elif path == "/v1/jobs":
                if method != "GET":
                    return await self._method_not_allowed(writer, keep)
                jobs = []
                for job_id in self.store.jobs():
                    status = self.dispatcher.status_view(job_id)
                    if status is not None:
                        jobs.append({"id": job_id, "state": status.state,
                                     "completed": status.completed,
                                     "total": status.total})
                await self._respond(writer, 200, {"jobs": jobs}, keep=keep)
            elif path.startswith("/v1/jobs/") and path.endswith("/events"):
                if method != "GET":
                    return await self._method_not_allowed(writer, keep)
                job_id = path[len("/v1/jobs/"):-len("/events")]
                return await self._stream_events(writer, job_id, keep)
            elif path.startswith("/v1/jobs/"):
                if method != "GET":
                    return await self._method_not_allowed(writer, keep)
                await self._job_view(writer, path[len("/v1/jobs/"):], keep)
            elif path == "/v1/shutdown":
                if method != "POST":
                    return await self._method_not_allowed(writer, keep)
                await self._respond(writer, 202, {"status": "draining"},
                                    keep=keep)
                asyncio.ensure_future(self.shutdown())
            else:
                await self._respond(writer, 404,
                                    {"error": f"no route for {path!r}"},
                                    keep=keep)
        except (ConnectionResetError, BrokenPipeError):
            return True
        except Exception as exc:  # noqa: BLE001 — a handler bug must not kill the loop
            await self._respond(
                writer, 500,
                {"error": f"{type(exc).__name__}: {exc}"}, keep=keep)
        return False

    async def _submit(self, writer: asyncio.StreamWriter, kind: str,
                      body: bytes, keep: bool) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            await self._respond(writer, 400,
                                {"error": f"invalid JSON body: {exc}"},
                                keep=keep)
            return
        if not isinstance(payload, dict):
            await self._respond(
                writer, 400,
                {"error": "body must be a JSON object (the envelope's "
                          "to_dict form)"}, keep=keep)
            return
        try:
            status = self.dispatcher.submit(kind, payload)
        except ServiceDraining as exc:
            await self._respond(writer, 503, {"error": str(exc)}, keep=keep)
            return
        except (ValueError, TypeError, KeyError) as exc:
            await self._respond(
                writer, 400,
                {"error": f"invalid {kind} payload: "
                          f"{type(exc).__name__}: {exc}"}, keep=keep)
            return
        await self._respond(writer, 202,
                            {"id": status.id, "state": status.state,
                             "total": status.total}, keep=keep)

    async def _job_view(self, writer: asyncio.StreamWriter, job_id: str,
                        keep: bool) -> None:
        status = self.dispatcher.status_view(job_id)
        if status is None:
            await self._respond(writer, 404,
                                {"error": f"unknown job {job_id!r}"},
                                keep=keep)
            return
        spec = self.store.spec(job_id)
        view: Dict[str, Any] = {
            "id": job_id,
            "kind": spec.kind if spec is not None else None,
            "tags": dict(spec.tags) if spec is not None else {},
            "status": status.to_dict(),
            "result": None,
        }
        if status.state == "done":
            result = self.store.result(job_id)
            if result is not None:
                view["result"] = result.to_dict()
        await self._respond(writer, 200, view, keep=keep)

    async def _stream_events(self, writer: asyncio.StreamWriter,
                             job_id: str, keep: bool) -> bool:
        if self.store.status(job_id) is None:
            await self._respond(writer, 404,
                                {"error": f"unknown job {job_id!r}"},
                                keep=keep)
            return False
        queue = self.dispatcher.subscribe(job_id)
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Transfer-Encoding: chunked\r\n"
                     b"Connection: close\r\n\r\n")
        try:
            await writer.drain()
            while True:
                event = await queue.get()
                if event is None:
                    break
                data = (json.dumps(event, sort_keys=True) + "\n"
                        ).encode("utf-8")
                writer.write(b"%x\r\n" % len(data) + data + b"\r\n")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self.dispatcher.unsubscribe(job_id, queue)
        return True

    async def _method_not_allowed(self, writer: asyncio.StreamWriter,
                                  keep: bool) -> bool:
        await self._respond(writer, 405, {"error": "method not allowed"},
                            keep=keep)
        return False

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, code: int,
                       payload: Dict[str, Any], keep: bool = True) -> None:
        body = (json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
                ).encode("utf-8")
        head = (f"HTTP/1.1 {code} {_REASONS.get(code, 'Unknown')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep else 'close'}\r\n"
                f"\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()


async def serve(host: str, port: int, store_dir: str, cache=None,
                backend: Optional[str] = None, workers: int = 2,
                parallel: int = 0, announce=print) -> None:
    """Run a service until SIGTERM/SIGINT or ``POST /v1/shutdown``."""
    app = ServiceApp(store_dir, cache=cache, backend=backend,
                     workers=workers, parallel=parallel)
    await app.start(host=host, port=port)
    app.install_signal_handlers()
    requeued, crashed = app.recovered
    if announce is not None:
        announce(f"repro service listening on http://{host}:{app.port}")
        announce(f"store     : {store_dir}")
        if requeued or crashed:
            announce(f"recovered : requeued={len(requeued)} "
                     f"crashed={len(crashed)}")
    await app.wait_closed()
    if announce is not None:
        announce("service drained and stopped")
