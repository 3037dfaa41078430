"""Shared asyncio HTTP/1.1 plumbing for the repro daemons.

Both long-running processes — the single-node ``repro-serve`` daemon
(:class:`~repro.service.server.SummaryService`) and the cluster
coordinator (:class:`~repro.service.cluster.coordinator.
CoordinatorService`) — speak the same deliberately small HTTP/1.1 subset
on :func:`asyncio.start_server`: request line, headers, Content-Length
bodies, keep-alive.  :class:`HttpServerBase` holds that plumbing once;
subclasses implement ``_dispatch(method, path, params, body)`` and return
``(status, payload)`` where the payload is either a JSON-able dict or a
:class:`BinaryResponse` (the zero-copy codec path of ``GET /bundle``,
which ships encoded sketch bundles without a JSON detour).
"""

from __future__ import annotations

import asyncio
import contextlib
import time
import urllib.parse
from dataclasses import dataclass, field

import json

import numpy as np

from repro.obs import MetricsRegistry, Tracer
from repro.service.jsonutil import dumps_strict, sanitize_non_finite
from repro.store.codec import MAGIC, event_batch_namespaces

__all__ = [
    "BinaryResponse", "HttpServerBase", "_HttpError",
    "coerce_query_key", "query_request_from_params",
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


class _HttpError(Exception):
    """An error with a status code, rendered as a JSON error body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def coerce_query_key(raw: str):
    """Best-effort typing for query-string keys.

    JSON bodies carry key types exactly; a query string cannot, so
    numeric-looking keys are folded to numbers — matching how JSON
    ingest delivers them.  Keys that are digit *strings* in the data
    must use ``POST /query``.
    """
    try:
        return int(raw)
    except ValueError:
        try:
            return float(raw)
        except ValueError:
            return raw


def query_request_from_params(params: dict) -> dict:
    """A ``GET /query`` query string as the equivalent POST body.

    Comma-separated ``assignments`` and ``keys`` become lists (keys
    typed via :func:`coerce_query_key`), ``ell`` becomes an int.  Both
    daemons — the worker and the coordinator — parse their GET surface
    through this one function, so a filter like ``keys=a,b`` means the
    same subpopulation everywhere instead of silently degrading to a
    per-character match where the splitting was forgotten.
    """
    request = dict(params)
    if "assignments" in request:
        request["assignments"] = [
            part for part in request["assignments"].split(",") if part
        ]
    if "keys" in request:
        request["keys"] = [
            coerce_query_key(part)
            for part in request["keys"].split(",")
            if part
        ]
    if "ell" in request:
        request["ell"] = int(request["ell"])
    return request


def validate_ingest_batch(
    configs, namespace, keys, weights, max_events: int
) -> dict:
    """The one check an ingest batch passes before anything is applied.

    Shared by the worker's JSON and frame paths and by the coordinator
    (which must refuse a bad client batch *before* routing any of it).
    ``configs`` maps namespace name to its ``NamespaceConfig``; ``keys``
    is a JSON list, or what an ingest frame decoded to (a numeric array
    or a list of key values).  Returns the weights as validated float
    arrays; every failure is an :class:`_HttpError` (404 unknown
    namespace, 413 too many events, 400 otherwise).
    """
    if namespace not in configs:
        raise _HttpError(
            404,
            f"unknown namespace {namespace!r}; known: "
            f"{', '.join(configs)}",
        )
    if not isinstance(keys, (list, np.ndarray)) or not isinstance(
        weights, dict
    ):
        raise _HttpError(
            400,
            "ingest body needs 'keys' (list) and 'weights' "
            "(assignment -> list of numbers)",
        )
    if len(keys) > max_events:
        raise _HttpError(
            413,
            f"batch of {len(keys)} events exceeds max_batch_events="
            f"{max_events}; split the batch",
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


#: routes every daemon serves from the base class, kept out of the
#: "other" bucket of the per-route metrics
_BASE_ROUTES = frozenset({"/metrics", "/trace/recent", "/health", "/healthz"})


class HttpServerBase:
    """Connection handling + request parsing + response writing.

    Subclasses provide ``self.config`` (with a ``max_body_bytes``
    attribute), implement ``_dispatch``, and drive the lifecycle
    (binding ``self._server``, setting ``self._stopping`` on shutdown).
    """

    #: subclass dispatch routes, for bounded-cardinality path labels
    ROUTES: frozenset = frozenset()

    def __init__(self) -> None:
        self.stats = {"requests": 0, "last_error": None}
        self._server: asyncio.base_events.Server | None = None
        self._connections: set = set()
        self._busy: set = set()  # connections with a request in flight
        self._stopping = False
        self._fault_plan = None
        self._fault_scope = "server"
        self._fault_on_fire = None
        self._init_obs()

    def _init_obs(
        self, enabled: bool = True, trace_log=None, trace_seed=None,
        trace_capacity: int = 512,
    ) -> None:
        """Build this daemon's metrics registry and tracer.

        Called with defaults from ``__init__``; daemons re-run it with
        their config's observability knobs before binding.  Per-daemon
        instances (never the process-global registry) keep two daemons
        in one test process from interleaving series.
        """
        self.metrics = MetricsRegistry(enabled=enabled)
        self.tracer = Tracer(
            seed=trace_seed, capacity=trace_capacity, log_path=trace_log,
            enabled=enabled,
        )
        self._route_labels = frozenset(type(self).ROUTES) | _BASE_ROUTES
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

    def _route_label(self, path: str) -> str:
        """The path, folded to ``other`` when it is not a served route —
        arbitrary 404 probes must not mint unbounded label values."""
        return path if path in self._route_labels else "other"

    def _dispatch_obs(self, method, path, params):
        """The observability routes every daemon serves, or ``None``."""
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "use GET /metrics")
            return 200, BinaryResponse(
                self.metrics.render().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/trace/recent":
            if method != "GET":
                raise _HttpError(405, "use GET /trace/recent")
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
        return None

    def install_faults(
        self, plan, scope: str = "server", on_fire=None
    ) -> None:
        """Inject a :class:`~repro.service.faults.FaultPlan` into every
        parsed request before dispatch (``None`` uninstalls).

        Server-side faults fire after the request bytes are fully read:
        an ``error`` answers without dispatching, a ``drop`` closes the
        connection silently, a ``blackhole`` holds it open for the
        rule's delay and then drops it.  ``on_fire(decision)`` runs on
        each firing — the daemons use it to bump their ``faults_injected``
        runtime counter.
        """
        self._fault_plan = plan
        self._fault_scope = scope
        self._fault_on_fire = on_fire

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
        if decision is not None and self._fault_on_fire is not None:
            with contextlib.suppress(Exception):
                self._fault_on_fire(decision)
        return decision

    @property
    def port(self) -> int:
        """The actually bound port (useful with ``port=0``)."""
        if self._server is None:
            raise RuntimeError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    async def _dispatch(self, method, path, params, body):
        raise NotImplementedError

    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
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
                self.stats["requests"] += 1
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
                    route = self._route_label(path)
                    span = self.tracer.begin_request(
                        f"{method} {route}",
                        header=headers.get("x-repro-trace"),
                    )
                    started = time.perf_counter()
                    with span:
                        try:
                            response = self._dispatch_obs(
                                method, path, params
                            )
                            if response is None:
                                response = await self._dispatch(
                                    method, path, params, body
                                )
                            status, payload = response
                        except _HttpError as err:
                            status, payload = err.status, {"error": str(err)}
                        except (ValueError, TypeError) as err:
                            status, payload = 400, {"error": str(err)}
                        except (KeyError, LookupError) as err:
                            message = err.args[0] if err.args else str(err)
                            status, payload = 404, {"error": str(message)}
                        except Exception as err:  # never kill the loop
                            self.stats["last_error"] = f"{path}: {err}"
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
                    if self.metrics.enabled:
                        self._http_latency.observe(
                            time.perf_counter() - started, path=route
                        )
                        self._http_requests.inc(
                            path=route, status=str(status)
                        )
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
            self._connections.discard(writer)
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
        if length > self.config.max_body_bytes:
            raise _HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.config.max_body_bytes}-byte limit",
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
