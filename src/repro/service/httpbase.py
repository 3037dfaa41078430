"""Shared asyncio HTTP/1.1 plumbing for the repro daemons.

Both long-running processes — the single-node ``repro-serve`` daemon
(:class:`~repro.service.server.SummaryService`) and the cluster
coordinator (:class:`~repro.service.cluster.coordinator.
CoordinatorService`) — speak the same deliberately small HTTP/1.1 subset
on :func:`asyncio.start_server`: request line, headers, Content-Length
bodies, keep-alive.  :class:`HttpServerBase` is the one daemon shell:
that plumbing, the lifecycle (bind, serve, drain in-flight requests,
stop), the observability endpoints, the one ``/query`` handler (over the
daemon's :class:`~repro.service.planner.QueryPlanner`) and dispatch
through a per-daemon ``{(method, path): handler}`` table.  A handler
takes ``(params, body)`` and returns ``(status, payload)`` where the
payload is either a JSON-able dict or a :class:`BinaryResponse` (the
zero-copy codec path of ``GET /bundle``, which ships encoded sketch
bundles without a JSON detour).
:class:`DaemonThread` runs either daemon on a background thread.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Callable

import json

import numpy as np

from repro.obs import MetricsRegistry, Tracer, bind_parent, current_span
from repro.ranks.hashing import as_key_array
from repro.service.config import unknown_namespace
from repro.service.jsonutil import dumps_strict, sanitize_non_finite
from repro.service.planner import (
    QueryPlanner,
    QuerySpec,
    query_request_from_params,
)
from repro.store.codec import (
    MAGIC,
    decode_event_batch,
    event_batch_namespaces,
)

__all__ = [
    "BinaryResponse", "DaemonThread", "HttpServerBase", "_HttpError",
    "validate_ingest_batch",
]

_MAX_LINE = 16 * 1024
_MAX_HEADERS = 100
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable",
}

#: seconds shutdown waits for requests already in flight to be answered
_DRAIN_S = 30.0

#: largest request body either daemon reads (413 above it)
MAX_BODY_BYTES = 32 << 20

#: the most union rows plus predicate keys a ``/query`` may estimate on
#: either daemon's event-loop thread; a larger one goes to the executor.
#: Over about 3.4k rows a memoized engine's key_in estimate took 0.1 ms,
#: and the first one on an engine (it builds the key index) 0.6-0.8 ms,
#: on a 2-CPU host
LOOP_WORK_ROWS = 1 << 12


class _HttpError(Exception):
    """An error with a status code, rendered as a JSON error body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def validate_ingest_batch(configs, namespace, keys, weights) -> dict:
    """The check one ingest section passes before anything is applied.

    ``configs`` maps namespace name to its ``NamespaceConfig``; ``keys``
    is a JSON list, or what an ingest frame decoded to (a numeric array
    or a list of key values).  Returns the weights as validated float
    arrays; every failure is an :class:`_HttpError` (404 unknown
    namespace, 400 otherwise).
    """
    if namespace not in configs:
        raise _HttpError(404, unknown_namespace(namespace, configs))
    if not isinstance(keys, (list, np.ndarray)) or not isinstance(
        weights, dict
    ):
        raise _HttpError(
            400,
            "ingest body needs 'keys' (list) and 'weights' "
            "(assignment -> list of numbers)",
        )
    known = set(configs[namespace].assignments)
    unknown = set(weights) - known
    if unknown:
        raise _HttpError(
            400,
            f"unknown assignments {sorted(unknown)} for namespace "
            f"{namespace!r}; known: {sorted(known)}",
        )
    # Validate fully before acknowledging: an async batch that is
    # queued and later fails to apply would be a 200 for data that
    # silently never lands, breaking the accepted => applied contract.
    if isinstance(keys, list) and not all(
        isinstance(key, (str, int, float)) for key in keys
    ):
        raise _HttpError(
            400, "keys must be strings or numbers (no null/objects)"
        )
    checked = {}
    for name, values in weights.items():
        if not isinstance(values, (list, np.ndarray)) or len(values) != len(
            keys
        ):
            raise _HttpError(
                400,
                f"weights[{name!r}] must be a list of {len(keys)} "
                "numbers (one per key)",
            )
        try:
            arr = np.asarray(values, dtype=float)
        except (ValueError, TypeError):
            raise _HttpError(
                400, f"weights[{name!r}] must be numbers"
            ) from None
        if arr.ndim != 1:
            raise _HttpError(400, f"weights[{name!r}] must be numbers")
        if not bool(np.all(np.isfinite(arr) & (arr >= 0.0))):
            raise _HttpError(
                400,
                f"weights[{name!r}] must be finite and non-negative",
            )
        checked[name] = arr
    return checked


@dataclass
class BinaryResponse:
    """A non-JSON response body (``application/octet-stream``).

    ``headers`` carries extra response headers — the ``/bundle`` endpoint
    uses them for the namespace version token, so a client gets the
    cache key for the blob without decoding it.
    """

    data: bytes
    headers: dict = field(default_factory=dict)
    content_type: str = "application/octet-stream"


class HttpServerBase:
    """The daemon shell: lifecycle, dispatch, connection handling.

    A subclass passes its config (``host``, ``port``, ``namespaces``,
    ``observability``, ``trace_log``), sets
    ``self.runtime`` (its :class:`~repro.store.runtime.RuntimeStore`) and
    ``self.planner`` (what ``/query`` answers through), adds its routes
    to ``self.routes`` and implements :meth:`_launch` and :meth:`_finish`.
    """

    #: "worker" | "coordinator": the /health payload and fault scope
    role = "daemon"
    #: counters the daemon bumps with ``self.count[key].inc()``: key ->
    #: help.  ``/status`` ``stats.<key>`` reads the registry series
    #: ``<series_prefix><key>_total``
    counted = {
        "requests": "HTTP requests parsed (counted on arrival, before "
                    "dispatch; repro_http_requests_total counts replies).",
        "queries": "Parsed /query requests.",
    }
    series_prefix = "repro_"
    #: more ``stats`` keys, read from series counted elsewhere
    stats_series: dict = {}
    #: ``/status`` ``runtime.counters`` key -> series; a key that is also
    #: a ``stats`` or ``planner`` key names the same series
    counter_series = {
        "faults_injected": "repro_faults_injected_total",
        "cache_hits": QueryPlanner.stats_series["hits"],
        "cache_misses": QueryPlanner.stats_series["misses"],
    }
    #: fields the daemon's ``/query`` reply carries beside the answer
    query_reply: dict = {}

    def __init__(self, config, clock: Callable[[], float] = time.time):
        self.config = config
        self.clock = clock
        #: the last unexpected failure (``/status`` ``stats.last_error``)
        self.last_error = None
        # per-daemon instances keep two daemons in one test process from
        # interleaving series
        self.metrics = MetricsRegistry(enabled=config.observability)
        series = {
            key: f"{self.series_prefix}{key}_total" for key in self.counted
        }
        self.count = {
            key: self.metrics.counter(name, self.counted[key])
            for key, name in series.items()
        }
        #: live read-only counts, each read from its registry series
        self.stats = self.metrics.counts({**series, **self.stats_series})
        self.tracer = Tracer(
            capacity=512, log_path=config.trace_log,
            enabled=config.observability,
        )
        self._http_requests = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by route and status code.",
            labelnames=("path", "status"),
        )
        self._http_latency = self.metrics.histogram(
            "repro_http_request_seconds",
            "End-to-end request handling latency in seconds.",
            labelnames=("path",),
        )
        self._faults_injected = self.metrics.counter(
            "repro_faults_injected_total",
            "Requests intercepted by a server-side fault plan.",
        )
        # both daemons answer from their runtime tier's result cache
        self.metrics.gauge(
            "repro_result_cache_entries",
            "Entries in the persistent query-result cache.",
            callback=lambda: self.runtime.cache_stats()["entries"],
        )
        #: ``(method, path) -> async handler(params, body)``; the metric
        #: path labels, 404-vs-405 and the ``endpoints:`` message all
        #: derive from this table
        self.routes: dict[tuple, Callable] = {
            ("GET", "/health"): self._handle_health,
            ("GET", "/healthz"): self._handle_health,
            ("GET", "/metrics"): self._handle_metrics,
            ("GET", "/trace/recent"): self._handle_trace_recent,
            ("POST", "/shutdown"): self._handle_shutdown,
        }
        self._paths: dict = {}  # the table's paths, fixed at start()
        self._server: asyncio.base_events.Server | None = None
        self._stop_event: asyncio.Event | None = None
        #: long-running handlers park here; notified at shutdown
        self._wakeup: asyncio.Condition | None = None
        self._started_monotonic: float | None = None
        self._connections: dict = {}  # writer -> its handler task
        self._busy: set = set()  # connections with a request in flight
        self._stopping = False
        self._fault_plan = None
        self._fault_scope = self.role

    def _count_sections(self) -> dict:
        """``/status``'s ``stats`` and ``runtime`` (with ``counters``)."""
        runtime = self.runtime.stats()
        runtime["counters"] = dict(self.metrics.counts(self.counter_series))
        return {
            "stats": {**self.stats, "last_error": self.last_error},
            "runtime": runtime,
        }

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener, then launch the daemon's background tasks."""
        if self._server is not None:
            raise RuntimeError(f"{self.role} already started")
        self._paths = dict.fromkeys(path for _method, path in self.routes)
        self._stop_event = asyncio.Event()
        self._wakeup = asyncio.Condition()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started_monotonic = time.monotonic()
        self._launch()

    def _launch(self) -> None:
        """Start background tasks; runs once the listener is bound."""
        raise NotImplementedError

    async def _finish(self) -> None:
        """Stop background work and release resources; runs once no
        request is in flight and none can arrive."""
        raise NotImplementedError

    def request_shutdown(self) -> None:
        """Ask the daemon to stop (safe from the event-loop thread only;
        other threads go through ``loop.call_soon_threadsafe``)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def run(self) -> None:
        """Serve until a shutdown request, then :meth:`shutdown`."""
        if self._server is None:
            await self.start()
        try:
            await self._stop_event.wait()
        finally:
            await self.shutdown()

    async def shutdown(self) -> None:
        """Stop accepting, answer what is in flight, then :meth:`_finish`."""
        if self._server is None:
            return
        # Refuse new work first, including on established keep-alive
        # connections: handlers answer 503 to what must not start now
        # and hang up after their reply.
        self._stopping = True
        async with self._wakeup:
            self._wakeup.notify_all()
        server, self._server = self._server, None
        server.close()
        # Idle connections are closed; one with a request in flight is
        # left to deliver its reply — waited for here, on every Python:
        # Server.wait_closed() waits for handlers only from 3.12 on.
        busy = []
        for writer, task in list(self._connections.items()):
            if writer in self._busy:
                busy.append(task)
            else:
                writer.close()
        if busy:
            await asyncio.wait(busy, timeout=_DRAIN_S)
        await self._finish()
        await asyncio.sleep(0)  # let closed handlers unwind

    # -- dispatch -------------------------------------------------------------

    async def _dispatch(self, method, path, params, body):
        handler = self.routes.get((method, path))
        if handler is None:
            raise _HttpError(
                405 if path in self._paths else 404,
                f"no route for {method} {path} "
                f"(endpoints: {' '.join(self._paths)})",
            )
        return await handler(params, body)

    async def _handle_health(self, params, body):
        # Deliberately lock-free: a liveness probe must answer even when
        # a query thread is parked on a daemon lock, or a busy worker
        # would be declared dead.
        return 200, {
            "ok": True, "stopping": self._stopping, "role": self.role,
            "namespaces": [ns.name for ns in self.config.namespaces],
        }

    async def _handle_metrics(self, params, body):
        return 200, BinaryResponse(
            self.metrics.render().encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _handle_trace_recent(self, params, body):
        try:
            limit = int(params.get("limit", 50))
        except ValueError:
            raise _HttpError(
                400, f"invalid limit {params['limit']!r}"
            ) from None
        return 200, {
            "ok": True,
            "spans": self.tracer.recent(limit),
            "dropped_log_writes": self.tracer.dropped,
        }

    async def _handle_shutdown(self, params, body):
        # Respond first, stop right after: the event is only *set* here;
        # run() does the rest.
        asyncio.get_running_loop().call_soon(self.request_shutdown)
        return 200, {"ok": True, "stopping": True}

    def _parse_query(self, request: dict) -> QuerySpec:
        """A query body as the spec the planner answers (a worker's
        watch registrations and re-evaluations parse here too)."""
        return QuerySpec.parse(request, self.planner.source.configs)

    async def _handle_query(self, params, body):
        """Answer from memory on the loop when the planner's memo step
        can without waiting (see :meth:`QueryPlanner.answer_in_memory`);
        anything else — a plan, a gather, a temporal spec, a busy lock —
        on the executor.  The request span is tagged
        ``path=loop|executor``."""
        with self.tracer.span("parse"):
            spec = self._parse_query(self._query_fields(params, body))
        self.count["queries"].inc()
        request, path = current_span(), "loop"
        result = self.planner.answer_in_memory(spec, LOOP_WORK_ROWS)
        if result is None:
            path = "executor"
            # executor threads do not inherit the task's context: carry
            # the request span over so planner child spans join this trace
            result = await asyncio.get_running_loop().run_in_executor(
                None, bind_parent, request, self._answer_query, spec
            )
        if request is not None:
            request.annotate(path=path)
        return 200, {**self.query_reply, **result}

    def _answer_query(self, query) -> dict:
        """One query answered on this thread, as ``/query`` answers it on
        the executor: a parsed :class:`QuerySpec`, or a body to parse."""
        if not isinstance(query, QuerySpec):
            query = self._parse_query(query)
        return self.planner.answer(query)

    def install_faults(self, plan, scope: "str | None" = None) -> None:
        """Inject a :class:`~repro.service.faults.FaultPlan` into every
        parsed request before dispatch (``None`` uninstalls).

        Server-side faults fire after the request bytes are fully read:
        an ``error`` answers without dispatching, a ``drop`` closes the
        connection silently, a ``blackhole`` holds it open for the
        rule's delay and then drops it.  Each firing counts in ``/status``
        ``runtime.counters.faults_injected``.
        """
        self._fault_plan = plan
        self._fault_scope = self.role if scope is None else scope

    def _fault_decision(self, method, path, params, body):
        plan = self._fault_plan
        if plan is None:
            return None
        namespace = params.get("namespace")
        if namespace is None and plan.wants_namespace:
            # slot-scoped rules need the namespace: a multi-slot bundle
            # fetch names its namespaces in ``have``, POST bodies carry
            # theirs (an ingest frame one per section in its header)
            with contextlib.suppress(Exception):
                if "have" in params:
                    namespace = tuple(
                        name for name in json.loads(params["have"])
                        if isinstance(name, str)
                    )
                elif body[:4] == MAGIC:
                    namespace = event_batch_namespaces(body)
                elif body:
                    payload = json.loads(body)
                    if isinstance(payload, dict):
                        namespace = payload.get("namespace")
        decision = plan.decide(
            self._fault_scope, method, path, namespace=namespace
        )
        if decision is not None:
            self._faults_injected.inc()
        return decision

    @property
    def port(self) -> int:
        """The actually bound port (useful with ``port=0``)."""
        if self._server is None:
            raise RuntimeError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    async def _handle_connection(self, reader, writer) -> None:
        self._connections[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as err:
                    # e.g. an over-limit Content-Length: answer, then drop
                    # the connection (its body was never read).
                    self._write_response(
                        writer, err.status, {"error": str(err)}, False
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, params, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                )
                self.count["requests"].inc()
                fault = self._fault_decision(method, path, params, body)
                if fault is not None:
                    if fault.action == "delay":
                        await asyncio.sleep(fault.delay_s)
                    elif fault.action == "error":
                        self._write_response(
                            writer, fault.status,
                            {"error": "injected fault", "fault": True},
                            keep_alive,
                        )
                        await writer.drain()
                        if not keep_alive or self._stopping:
                            break
                        continue
                    elif fault.action == "blackhole":
                        await asyncio.sleep(fault.delay_s)
                        break
                    else:  # drop: close without answering
                        break
                self._busy.add(writer)  # shutdown leaves us to finish
                try:
                    # arbitrary 404 probes must not mint label values
                    route = path if path in self._paths else "other"
                    span = self.tracer.begin_request(
                        f"{method} {route}",
                        header=headers.get("x-repro-trace"),
                    )
                    started = time.perf_counter()
                    with span:
                        try:
                            status, payload = await self._dispatch(
                                method, path, params, body
                            )
                        except _HttpError as err:
                            status, payload = err.status, {"error": str(err)}
                        except (ValueError, TypeError) as err:
                            status, payload = 400, {"error": str(err)}
                        except (KeyError, LookupError) as err:
                            message = err.args[0] if err.args else str(err)
                            status, payload = 404, {"error": str(message)}
                        except Exception as err:  # never kill the loop
                            self.last_error = f"{path}: {err}"
                            status, payload = 500, {"error": str(err)}
                        if status >= 400:
                            span.fail(
                                payload.get("error", status)
                                if isinstance(payload, dict) else status
                            )
                            # the trace ID makes a failure grep-able
                            # across every daemon the request touched
                            if (
                                isinstance(payload, dict)
                                and span.recording
                            ):
                                payload.setdefault("trace", span.header())
                    self._http_latency.observe(
                        time.perf_counter() - started, path=route
                    )
                    self._http_requests.inc(path=route, status=str(status))
                    self._write_response(
                        writer, status, payload, keep_alive,
                        trace=span.header() if span.recording else None,
                    )
                    await writer.drain()
                finally:
                    self._busy.discard(writer)
                if not keep_alive or self._stopping:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.LimitOverrunError,
            ValueError,  # residual parse errors: drop, don't kill the task
        ):
            pass
        finally:
            self._connections.pop(writer, None)
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _read_request(self, reader):
        """Parse one request; ``None`` on a cleanly closed connection."""
        # A line exceeding the StreamReader's buffer limit makes readline
        # raise ValueError (it folds LimitOverrunError internally); left
        # uncaught it would kill the handler task with no response sent.
        try:
            line = await reader.readline()
        except ValueError:
            raise _HttpError(400, "request line too long") from None
        if not line:
            return None
        try:
            method, target, _version = line.decode("ascii").split()
        except ValueError:
            raise asyncio.IncompleteReadError(line, None) from None
        try:
            parsed = urllib.parse.urlsplit(target)
            params = {
                key: values[-1]
                for key, values in urllib.parse.parse_qs(parsed.query).items()
            }
        except ValueError as err:
            raise _HttpError(400, f"malformed request target: {err}") from None
        headers: dict[str, str] = {}
        header_lines = 0
        while True:
            try:
                raw = await reader.readline()
            except ValueError:
                raise _HttpError(431, "header line too long") from None
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(raw) > _MAX_LINE:
                raise _HttpError(
                    431,
                    f"header line of {len(raw)} bytes exceeds the "
                    f"{_MAX_LINE}-byte limit",
                )
            header_lines += 1  # count lines, not dict size: names may repeat
            if header_lines > _MAX_HEADERS:
                raise _HttpError(
                    431, f"more than {_MAX_HEADERS} header lines"
                )
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _HttpError(
                400, f"invalid Content-Length {raw_length!r}"
            ) from None
        if length < 0:
            raise _HttpError(
                400, f"invalid Content-Length {raw_length!r}"
            )
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), parsed.path, params, headers, body

    def _write_response(
        self, writer, status: int, payload, keep_alive: bool, trace=None
    ) -> None:
        trace_line = f"X-Repro-Trace: {trace}\r\n" if trace else ""
        if isinstance(payload, BinaryResponse):
            extra = "".join(
                f"{name}: {value}\r\n"
                for name, value in payload.headers.items()
            )
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {payload.content_type}\r\n"
                f"Content-Length: {len(payload.data)}\r\n"
                f"{extra}{trace_line}"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                "\r\n"
            ).encode("ascii")
            writer.write(head + payload.data)
            return
        # RFC 8259-strict serialization: non-finite floats travel as null
        # + a "non_finite" marker map (the planner already sanitizes its
        # answers; sanitizing again here is an idempotent no-op that
        # covers every other payload), and allow_nan=False turns any
        # missed path into a loud 500 instead of invalid JSON.
        data = dumps_strict(
            sanitize_non_finite(payload), sort_keys=True
        ).encode("utf-8") + b"\n"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"{trace_line}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("ascii")
        writer.write(head + data)

    def _query_fields(self, params, body: bytes) -> dict:
        """A ``/query`` request's fields: the POST body, else (the
        curl-able GET form) the query string."""
        if body:
            return self._json_body(body)
        return query_request_from_params(params)

    def _ingest_sections(self, body: bytes, configs, max_events: int):
        """The accept step of ``POST /ingest``, shared by both daemons.

        ``body`` is a JSON object or a codec ``event_batch`` frame, told
        apart by :data:`MAGIC`.  Returns ``(sections, sync)``: validated
        ``(namespace, key array, weights)`` tuples in body order, so
        nothing that can refuse the batch is left for apply time.  A
        frame that does not decode or a bad section is a 400, an
        unknown namespace a 404, more than ``max_events`` events in all
        a 413.
        """
        if body[:4] == MAGIC:
            frame = decode_event_batch(body)  # CodecError is a ValueError
            sync = frame.sync
            raw = [(s.namespace, s.keys, s.weights) for s in frame.sections]
        else:
            payload = self._json_body(body)
            sync = bool(payload.get("sync", False))
            raw = [(
                payload.get("namespace"), payload.get("keys"),
                payload.get("weights"),
            )]
        events = sum(
            len(keys) for _, keys, _ in raw
            if isinstance(keys, (list, np.ndarray))
        )
        if events > max_events:
            raise _HttpError(
                413,
                f"batch of {events} events exceeds max_batch_events="
                f"{max_events}; split the batch",
            )
        sections = []
        for namespace, keys, weights in raw:
            checked = validate_ingest_batch(configs, namespace, keys, weights)
            # normalised now, not at apply time: a NaN key must refuse
            # the batch, not fail it after it was acknowledged
            sections.append((namespace, as_key_array(keys), checked))
        return sections, sync

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            raise _HttpError(400, "expected a JSON request body")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as err:
            raise _HttpError(400, f"invalid JSON body: {err}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "JSON body must be an object")
        return payload


class DaemonThread:
    """Run a daemon on a background thread (tests, benches).

    ``start()`` blocks until the listener is bound and returns the actual
    port; ``stop()`` requests a graceful shutdown and joins the thread.
    ``.service`` is the daemon; subclasses bind ``service_class``.
    """

    service_class: type = None

    def __init__(self, config, clock: Callable[[], float] = time.time):
        self.config = config
        self.clock = clock
        self.service = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started: threading.Event | None = None
        self._error: BaseException | None = None

    def start(self, timeout: float = 30.0) -> int:
        role = self.service_class.role
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-{role}", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError(f"{role} failed to start in time")
        if self._error is not None:
            raise RuntimeError(
                f"{role} failed to start: {self._error}"
            ) from self._error
        return self.service.port

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as err:  # start() re-raises a failed start
            self._error = err
        finally:
            self._started.set()

    async def _amain(self) -> None:
        self.service = self.service_class(self.config, clock=self.clock)
        await self.service.start()
        self._loop = asyncio.get_running_loop()
        self._started.set()
        await self.service.run()

    def _stop_with(self, callback, timeout: float) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self.service is not None:
            with contextlib.suppress(RuntimeError):  # loop already closed
                self._loop.call_soon_threadsafe(callback)
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("daemon thread did not stop in time")
        self._thread = None

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown (drain, release), then join."""
        self._stop_with(lambda: self.service.request_shutdown(), timeout)

    def kill(self, timeout: float = 10.0) -> None:
        """Crash the daemon like a SIGKILL (failover tests): no drain,
        no checkpoint, sockets dropped; only what reached disk survives."""
        service = self.service

        def die() -> None:
            if service._server is not None:
                service._server.close()
            for writer in list(service._connections):
                writer.close()
            for task in asyncio.all_tasks():
                task.cancel()
            loop = asyncio.get_running_loop()
            loop.call_soon(loop.stop)

        self._stop_with(die, timeout)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
