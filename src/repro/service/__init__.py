"""Always-on summarization service: live windows, HTTP API, client, CLI.

The fifth layer of the system — a long-running daemon that ties the
sampling core, the vectorized query engine, the persistent store, and the
multicore execution layer together behind an asyncio HTTP JSON API:

* :mod:`repro.service.config` — :class:`ServiceConfig` /
  :class:`NamespaceConfig`, JSON round-trippable;
* :mod:`repro.service.windows` — :class:`LiveWindowManager`, per-namespace
  in-memory summarizers rotating into store buckets on time boundaries,
  with checkpoint-on-shutdown / resume-on-start;
* :mod:`repro.service.planner` — :class:`QueryPlanner`, merged
  live + stored query answering with a version-keyed result cache;
* :mod:`repro.service.server` — :class:`SummaryService`, the asyncio
  daemon (bounded-queue ingest backpressure, JSON endpoints, graceful
  shutdown) and :class:`ServiceThread` for embedding it in tests and
  benchmarks;
* :mod:`repro.service.client` — :class:`ServiceClient`, a thin stdlib
  HTTP client;
* :mod:`repro.service.cli` — the ``repro-serve`` command
  (serve / coordinate / status / ingest / query / cluster-* / shutdown);
* :mod:`repro.service.cluster` — distributed cluster mode: a coordinator
  daemon (:class:`CoordinatorService`) that routes ingest to slot owners
  and answers queries as the exact merge of per-worker sketch-bundle
  partials, and :class:`ClusterClient`, its client.

Service answers are *exact* relative to the offline path: a query served
over (live window + stored buckets) returns bit-identical estimates to a
:class:`~repro.engine.queries.QueryEngine` run over the equivalently
merged summaries — and a *cluster* answer merged from per-slot worker
bundles is bit-identical to a single node over the union of all events.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.cluster import (
    ClusterClient,
    ClusterError,
    ClusterTopology,
    CoordinatorConfig,
    CoordinatorService,
    CoordinatorThread,
    RepairPlanner,
    slot_namespace_configs,
)
from repro.service.config import NamespaceConfig, ServiceConfig
from repro.service.faults import FaultPlan, FaultRule
from repro.service.planner import QueryPlanner
from repro.service.server import ServiceThread, SummaryService
from repro.service.windows import CHECKPOINT_PART, LiveWindowManager

__all__ = [
    "CHECKPOINT_PART",
    "ClusterClient",
    "ClusterError",
    "ClusterTopology",
    "CoordinatorConfig",
    "CoordinatorService",
    "CoordinatorThread",
    "FaultPlan",
    "FaultRule",
    "LiveWindowManager",
    "NamespaceConfig",
    "QueryPlanner",
    "RepairPlanner",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceThread",
    "SummaryService",
    "slot_namespace_configs",
]
