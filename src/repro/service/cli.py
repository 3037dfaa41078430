"""``repro-serve``: run the summarization daemon or its cluster
coordinator, and talk to either over HTTP.

    repro-serve serve --root /tmp/flows --namespace web \\
        --assignments bytes packets --k 256 --port 8765
    repro-serve ingest --port 8765 --namespace web --assignment bytes \\
        --input events.csv --sync
    repro-serve query --port 8765 --namespace web --function max \\
        --assignments bytes packets
    repro-serve coordinate --root /tmp/coord --namespace web \\
        --assignments bytes packets --slots 16 --replication 2 --port 8900
    repro-serve cluster-join --port 8900 --worker-id w1 --worker-port 9001

A worker started with ``--cluster-slots N`` serves one namespace per key
slot; the coordinator routes ingest to them and merges their bundles
exactly.  A ``query`` answer that misses slots prints ``PARTIAL, missing
slots [...]`` and exits 3.  ``serve`` runs until SIGTERM/SIGINT (or
``POST /shutdown``), then checkpoints every live window, so the next
``serve`` resumes bit-identically.  ``python -m repro.service`` is the
same tool.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

from repro.cliutil import (
    ESTIMATOR, SAMPLING, OneOf, Verb, flag, print_json, read_events, run,
    verb_parser,
)
from repro.core.aggregates import FUNCTIONS
from repro.service.client import ServiceClient, ServiceError
from repro.service.cluster import (
    CoordinatorConfig,
    CoordinatorService,
    slot_namespace_configs,
)
from repro.service.config import NamespaceConfig, ServiceConfig
from repro.service.faults import FaultPlan
from repro.service.server import SummaryService
from repro.service.temporal import parse_duration
from repro.store.store import GRANULARITIES

__all__ = ["main", "build_parser"]


class _Daemon(NamedTuple):
    """What ``serve`` and ``coordinate`` differ in."""

    role: str  # "served" / "coordinated", for the --root error
    config_class: type
    service_class: type
    #: the config fields the daemon's own flags set (the --root path)
    fields: Callable[[argparse.Namespace], dict]
    #: the first stdout line, formatted with ``config``, ``port``, ``names``
    banner: str
    stopped: str


_DAEMONS = {
    "serve": _Daemon(
        "served", ServiceConfig, SummaryService,
        lambda args: dict(
            store_root=args.root,
            granularity=args.granularity,
            compact_to=None if args.compact_to == "off" else args.compact_to,
            compact_every_s=args.compact_every,
            tick_s=args.tick,
            trace_log=args.trace_log,
        ),
        "repro-serve listening on http://{config.host}:{port} "
        "(store {config.store_root}, namespaces: {names})",
        "repro-serve stopped (live windows checkpointed)",
    ),
    "coordinate": _Daemon(
        "coordinated", CoordinatorConfig, CoordinatorService,
        lambda args: dict(
            root=args.root,
            n_slots=args.slots,
            replication=args.replication,
            heartbeat_s=args.heartbeat,
            probe_concurrency=args.probe_concurrency,
            fail_after_s=args.fail_after,
            repair_interval_s=args.repair_interval,
            repair_max_attempts=args.repair_max_attempts,
            anti_entropy=not args.no_anti_entropy,
        ),
        "repro-serve coordinating on http://{config.host}:{port} "
        "(root {config.root}, {config.n_slots} slots x"
        "{config.replication}, namespaces: {names})",
        "repro-serve coordinator stopped",
    ),
}


def _config_from_args(args: argparse.Namespace):
    """The daemon's config: ``--config FILE``, or ``--root`` and flags."""
    daemon = _DAEMONS[args.command]
    if (args.config is None) == (args.root is None):
        raise SystemExit(
            "pass exactly one of --config FILE or --root DIR (with "
            "--namespace/--assignments)"
        )
    if args.config is not None:
        config = daemon.config_class.from_file(args.config)
        if args.port is not None:
            config = config.with_port(args.port)
    else:
        if not args.namespace or not args.assignments:
            raise SystemExit(
                "--root needs --namespace and --assignments to describe the "
                f"{daemon.role} namespace"
            )
        namespace = NamespaceConfig(
            name=args.namespace,
            assignments=tuple(args.assignments),
            k=args.k,
            family=args.family,
            salt=args.salt,
        )
        port = {} if args.port is None else {"port": args.port}
        config = daemon.config_class(
            namespaces=(namespace,), host=args.host, **port,
            **daemon.fields(args),
        )
    if getattr(args, "cluster_slots", None):
        # Cluster worker mode: every logical namespace expands into its
        # per-slot worker namespaces, so a coordinator can route each key
        # slot here and fetch exactly that slot's partial bundle back.
        config = replace(config, namespaces=tuple(
            slot_config
            for ns in config.namespaces
            for slot_config in slot_namespace_configs(ns, args.cluster_slots)
        ))
    return config


async def _run_daemon(daemon: _Daemon, config, fault_plan) -> None:
    service = daemon.service_class(config)
    if fault_plan is not None:
        service.install_faults(fault_plan)
    await service.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, service.request_shutdown)
    names = ", ".join(ns.name for ns in config.namespaces)
    print(daemon.banner.format(config=config, port=service.port, names=names),
          flush=True)
    await service.run()
    print(daemon.stopped, flush=True)


def _cmd_daemon(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    fault_plan = (
        None if args.fault_plan is None
        else FaultPlan.from_file(args.fault_plan)
    )
    asyncio.run(_run_daemon(_DAEMONS[args.command], config, fault_plan))
    return 0


# -- client verbs: one call, then print its reply ----------------------------


def _ask(call, show=lambda args, reply: print_json(reply)):
    """A handler: one ``call(client, args)``, then ``show(args, reply)``.

    ``show`` prints the reply and may return a non-zero exit status.
    """
    def handler(args: argparse.Namespace) -> int:
        client = ServiceClient(args.host, args.port, timeout=args.timeout)
        with client:
            reply = call(client, args)
        return show(args, reply) or 0

    return handler


def _handoff(verb: str):
    """``cluster-join`` / ``cluster-leave``'s line."""
    def show(args: argparse.Namespace, result: dict) -> None:
        handoff = result.get("handoff") or {}
        print(
            f"worker {result['worker_id']} {verb} "
            f"(slots {result.get('slots', [])}, "
            f"{handoff.get('artifacts', 0)} artifacts handed off"
            + (f", degraded: {handoff['degraded']}"
               if handoff.get("degraded") else "")
            + ")"
        )

    return show


def _repairs(client: ServiceClient, args: argparse.Namespace) -> dict:
    if args.run:
        tick = client.repairs_run()
        print(
            f"repair tick: promoted {tick.get('promoted', [])}, "
            f"{tick.get('enqueued', 0)} enqueued, "
            f"{tick.get('done', 0)} done, "
            f"{tick.get('failed', 0)} failed, "
            f"{tick.get('requeued', 0)} requeued"
        )
    return client.repairs(limit=args.limit)


def _show_repairs(args: argparse.Namespace, view: dict) -> None:
    if args.json:
        return print_json(view)
    journal = view.get("journal", {})
    state = "fully replicated" if view.get("fully_replicated") else (
        f"under-replicated slots: {view.get('under_replicated_slots', [])}"
    )
    print(
        f"replication   {state}"
        + (f", degraded: {view['degraded_slots']}"
           if view.get("degraded_slots") else "")
    )
    if view.get("failed_workers"):
        print(f"failed        {', '.join(view['failed_workers'])}")
    print(
        f"journal       {journal.get('queued', 0)} queued, "
        f"{journal.get('active', 0)} active, "
        f"{journal.get('done', 0)} done, "
        f"{journal.get('failed', 0)} failed"
    )
    for op in view.get("ops", []):
        source = f" <- {op['source']}" if op.get("source") else ""
        detail = f" ({op['detail']})" if op.get("detail") else ""
        print(
            f"op {op['id']:>5}      {op['status']:<8} {op['kind']} "
            f"slot {op['slot']} -> {op['target']}{source}{detail}"
        )


def _ingest(client: ServiceClient, args: argparse.Namespace) -> dict:
    events = read_events(args.input)
    return client.ingest(
        args.namespace,
        [key for key, _weight in events],
        {args.assignment: [weight for _key, weight in events]},
        sync=args.sync,
    )


def _estimate_body(args: argparse.Namespace) -> dict:
    """``query`` / ``watch``'s estimate: a ``/query`` body sans namespace."""
    body = {
        "kind": "estimate",
        "function": args.function,
        "assignments": list(args.assignments),
        "estimator": args.estimator,
    }
    for field in ("ell", "keys", "since", "until", "window", "step",
                  "decay", "anchor"):
        value = getattr(args, field)
        if value is not None:
            body[field] = value
    return body


def _query(client: ServiceClient, args: argparse.Namespace) -> dict:
    if args.jaccard:
        return client.jaccard(
            args.namespace, args.assignments, variant=args.variant,
            since=args.since, until=args.until,
        )
    return client.query(args.namespace, **_estimate_body(args))


def _show_answer(args: argparse.Namespace, result: dict) -> int:
    names = ",".join(args.assignments)
    if "windows" in result:
        print(
            f"{args.namespace}: {args.function}({names}) over "
            f"{len(result['windows'])} windows "
            f"[window {result['window_s']:g}s step {result['step_s']:g}s"
            + (f" decay {result['decay_s']:g}s"
               if result.get("decay_s") else "")
            + f", {result['estimator']}, version {result['version']}]"
        )
        for row in result["windows"]:
            shown = (
                "(no data)" if row.get("empty")
                else f"~= {row['estimate']:.6g}"
            )
            print(f"  {row['start']} .. {row['end']}  {shown}")
        return 0
    label = "jaccard" if args.jaccard else args.function
    cached = "cached" if result["cached"] else "computed"
    if result.get("estimate") is None:  # a cluster with nothing ingested
        shown = f"no data [version {result['version']}, {cached}]"
    else:
        shown = (
            f"~= {result['estimate']:.6g} [{result['estimator']}, "
            f"version {result['version']}, {cached}]"
        )
    line = f"{args.namespace}: {label}({names}) {shown}"
    if result.get("partial"):
        print(f"{line} PARTIAL, missing slots {result['missing_slots']}")
        return 3  # loud in the exit status too
    print(line)
    return 0


def _format_watch(watch: dict) -> str:
    spec = watch.get("spec") or {}
    names = ",".join(spec.get("assignments", []))
    threshold = watch.get("threshold") or {}
    direction, bound = next(iter(threshold.items()), ("?", "?"))
    answer = watch.get("last_answer") or {}
    estimate = answer.get("estimate")
    shown = "n/a" if estimate is None else f"{estimate:.6g}"
    state = "TRIGGERED" if watch.get("last_triggered") else "quiet"
    if watch.get("last_error"):
        state = f"error: {watch['last_error']}"
    return (
        f"watch {watch['id']} [{watch.get('namespace')}] "
        f"{spec.get('function', spec.get('kind', '?'))}({names}) "
        f"{direction} {bound} every {watch.get('cadence_s'):g}s -> "
        f"{shown} ({state}, seq {watch.get('update_seq')}, "
        f"{watch.get('evaluations')} evals)"
    )


def _show_watch(args: argparse.Namespace, result: dict) -> None:
    print(_format_watch(result["watch"]))


def _register_watch(client: ServiceClient, args: argparse.Namespace) -> dict:
    threshold = (
        {"above": args.above} if args.above is not None
        else {"below": args.below}
    )
    return client.watch_register(
        args.namespace, _estimate_body(args), threshold, cadence_s=args.every
    )


def _show_watches(args: argparse.Namespace, watches: list) -> None:
    if not watches:
        print("no continuous queries registered")
    for watch in watches:
        print(_format_watch(watch))


def _show_poll(args: argparse.Namespace, result: dict) -> int:
    if result.get("timed_out"):
        print(f"watch {args.id}: no update after {args.wait:g}s")
        return 1
    _show_watch(args, result)
    return 0


#: the ``/status`` sections ``stats`` prints, where the daemon has them:
#: a coordinator has no planner or queue, a worker no top-level repairs
_STATS_SECTIONS = ("stats", "planner", "runtime", "queue", "repairs")


def _stats(client: ServiceClient, args: argparse.Namespace) -> dict:
    status = client.status()
    return {key: status[key] for key in _STATS_SECTIONS if key in status}


def _show_text(args: argparse.Namespace, text: str) -> None:
    print(text, end="" if not text or text.endswith("\n") else "\n")


def _format_span(span: dict) -> str:
    parent = span.get("parent")
    line = (
        f"{span['trace']} {span['span']}"
        f"{' <- ' + parent if parent else ''}"
        f"  {span['name']}  {span['duration_ms']:.3f}ms  {span['status']}"
    )
    tags = span.get("tags")
    if tags:
        rendered = " ".join(f"{key}={tags[key]}" for key in sorted(tags))
        line += f"  [{rendered}]"
    if span.get("error"):
        line += f"  error={span['error']}"
    return line


def _show_trace(args: argparse.Namespace, result: dict) -> None:
    if args.json:
        return print_json(result)
    for span in result["spans"]:
        print(_format_span(span))
    dropped = result.get("dropped_log_writes", 0)
    if dropped:
        print(f"({dropped} trace-log writes dropped)", file=sys.stderr)


# -- flag groups and the verb table -------------------------------------------

#: every client verb's daemon address
_CLIENT = (
    flag("--host", default="127.0.0.1"),
    flag("--port", type=int, default=8765),
    flag("--timeout", type=float, default=30.0),
)


def _daemon_flags(config_help: str, root_help: str, port_help: str) -> tuple:
    """``serve`` and ``coordinate``: config source, namespace, address."""
    return (
        flag("--config", default=None, help=config_help),
        flag("--root", default=None, help=root_help),
        flag("--namespace", default=None),
        flag("--assignments", nargs="+", default=None),
        SAMPLING,
        flag("--host", default="127.0.0.1"),
        flag("--port", type=int, default=None, help=port_help),
        flag("--fault-plan", default=None, metavar="FILE",
             help="deterministic fault-injection plan JSON "
                  "(testing: see repro.service.faults)"),
    )


#: what ``query`` and ``watch`` estimate, and over which data
_ESTIMATE = (
    _CLIENT,
    flag("--namespace", required=True),
    flag("--function", default="max", choices=FUNCTIONS),
    flag("--assignments", required=True, nargs="+"),
    ESTIMATOR,
    flag("--keys", nargs="+", default=None,
         help="restrict to these keys (subpopulation query)"),
    flag("--since", default=None, metavar="BUCKET",
         help="inclusive start bucket id"),
    flag("--until", default=None, metavar="BUCKET",
         help="inclusive end bucket id"),
    flag("--window", default=None, metavar="DUR",
         help="windowed series, e.g. 15m (with --step: sliding; alone: "
              "tumbling)"),
    flag("--step", default=None, metavar="DUR",
         help="window stride, e.g. 1m (requires --window)"),
    flag("--decay", default=None, metavar="DUR",
         help="exponential half-life for time-decayed weights, e.g. 1h"),
    flag("--anchor", type=float, default=None, metavar="EPOCH",
         help="decay/window anchor as POSIX seconds (default: end of "
              "available data)"),
)

_WATCH_ID = (_CLIENT, flag("--id", type=int, required=True))

_VERBS = (
    Verb("serve", "run the daemon in the foreground", _cmd_daemon, (
        _daemon_flags(
            "service config JSON (see ServiceConfig)",
            "store root directory",
            "bind port (default 8765; 0 = ephemeral); overrides the config "
            "file",
        ),
        flag("--granularity", default="minute", choices=list(GRANULARITIES),
             help="live-window rotation granularity"),
        flag("--compact-to", default="hour",
             choices=[*GRANULARITIES, "off"],
             help="background compaction target ('off' disables)"),
        flag("--compact-every", type=float, default=300.0,
             metavar="SECONDS"),
        flag("--tick", type=float, default=1.0, metavar="SECONDS",
             help="rotation check interval"),
        flag("--cluster-slots", type=int, default=None, metavar="N",
             help="cluster worker mode: expand every namespace into N "
                  "per-slot worker namespaces (must match the "
                  "coordinator's n_slots)"),
        flag("--trace-log", default=None, metavar="FILE",
             help="append every finished span to this JSONL file (the "
                  "/trace/recent ring, durably)"),
    )),
    Verb("coordinate",
         "run the cluster coordinator (membership, routed ingest, exact "
         "merged queries)", _cmd_daemon, (
             _daemon_flags(
                 "coordinator config JSON (see CoordinatorConfig)",
                 "coordinator state directory (runtime.sqlite: membership "
                 "+ cache)",
                 "bind port (default 8900; 0 = ephemeral)",
             ),
             flag("--slots", type=int, default=16,
                  help="key slots partitioning the key space"),
             flag("--replication", type=int, default=1,
                  help="owners per slot (2 = replica pairs)"),
             flag("--heartbeat", type=float, default=2.0, metavar="SECONDS",
                  help="worker /health probe cadence"),
             flag("--probe-concurrency", type=int, default=8, metavar="N",
                  help="concurrent heartbeat probes per round"),
             flag("--fail-after", type=float, default=10.0,
                  metavar="SECONDS",
                  help="grace window before a heartbeat-dead worker is "
                       "promoted to failed and its slots re-replicated"),
             flag("--repair-interval", type=float, default=2.0,
                  metavar="SECONDS",
                  help="background repair tick cadence (0 disables the "
                       "background loop; POST /repairs/run still works)"),
             flag("--repair-max-attempts", type=int, default=5, metavar="N",
                  help="attempts before a repair op is marked failed "
                       "(anti-entropy re-plans it while the copy stays "
                       "stale)"),
             flag("--no-anti-entropy", action="store_true",
                  help="disable periodic stale-copy repair planning"),
         )),
    Verb("cluster-join", "register a worker with a coordinator", _ask(
        lambda client, args: client.cluster_join(
            args.worker_id, args.worker_host, args.worker_port
        ),
        _handoff("joined"),
    ), (
        _CLIENT,
        flag("--worker-id", required=True),
        flag("--worker-host", default="127.0.0.1"),
        flag("--worker-port", type=int, required=True),
    )),
    Verb("cluster-leave", "deregister a worker (handoff away first)", _ask(
        lambda client, args: client.cluster_leave(args.worker_id),
        _handoff("left"),
    ), (_CLIENT, flag("--worker-id", required=True))),
    Verb("cluster-status",
         "membership, slot assignment, and health from a coordinator",
         _ask(lambda client, args: client.cluster_status()), _CLIENT),
    Verb("repairs",
         "replication health and the repair journal from a coordinator",
         _ask(_repairs, _show_repairs), (
             _CLIENT,
             flag("--run", action="store_true",
                  help="run one synchronous repair tick first"),
             flag("--limit", type=int, default=None,
                  help="journal rows to show (default 200)"),
             flag("--json", action="store_true",
                  help="print the raw /repairs JSON"),
         )),
    Verb("status", "print the daemon's status",
         _ask(lambda client, args: client.status()), _CLIENT),
    Verb("ingest", "POST a key,weight CSV as one ingest batch", _ask(
        _ingest,
        lambda args, result: print(
            f"ingested {result['queued']} events into {args.namespace} "
            f"({'applied' if result.get('applied') else 'queued'})"
        ),
    ), (
        _CLIENT,
        flag("--namespace", required=True),
        flag("--assignment", required=True,
             help="assignment the CSV weights belong to"),
        flag("--input", required=True, help="CSV of key,weight events"),
        flag("--sync", action="store_true",
             help="wait until the batch is applied"),
    )),
    Verb("query", "one-shot estimate query", _ask(_query, _show_answer), (
        _ESTIMATE,
        flag("--jaccard", action="store_true",
             help="weighted Jaccard between two assignments"),
        flag("--variant", default="l", choices=["s", "l"],
             help="Jaccard min-estimator variant"),
    )),
    Verb("watch", "register a continuous query (persists in runtime.sqlite)",
         _ask(_register_watch, _show_watch), (
             _ESTIMATE,
             OneOf((
                 flag("--above", type=float, default=None,
                      help="trigger when the estimate exceeds this"),
                 flag("--below", type=float, default=None,
                      help="trigger when the estimate drops below this"),
             ), required=True),
             flag("--every", type=parse_duration, required=True,
                  metavar="DUR", help="evaluation cadence (e.g. 30s, 5m)"),
         )),
    Verb("watches", "list continuous queries and their last answers",
         _ask(lambda client, args: client.watches(namespace=args.namespace),
              _show_watches),
         (_CLIENT, flag("--namespace", default=None))),
    Verb("unwatch", "remove a continuous query",
         _ask(lambda client, args: client.watch_remove(args.id),
              lambda args, _reply: print(f"removed watch {args.id}")),
         _WATCH_ID),
    Verb("watch-poll", "long-poll a continuous query for its next update",
         _ask(lambda client, args: client.watch_poll(
             args.id, after=args.after, timeout=args.wait
         ), _show_poll), (
             _WATCH_ID,
             flag("--after", type=int, default=0,
                  help="last seen update_seq cursor"),
             flag("--wait", type=float, default=30.0, metavar="SECONDS",
                  help="server-side poll deadline"),
         )),
    Verb("stats",
         "a daemon's counts, cache and runtime tier (repro-store stats "
         "reads a root offline)", _ask(_stats), _CLIENT),
    Verb("metrics", "scrape a daemon's /metrics (Prometheus text exposition)",
         _ask(lambda client, args: client.metrics(), _show_text), _CLIENT),
    Verb("trace", "show a daemon's most recent request/span traces",
         _ask(lambda client, args: client.trace_recent(limit=args.limit),
              _show_trace), (
             _CLIENT,
             flag("--limit", type=int, default=50,
                  help="maximum spans to fetch (newest first)"),
             flag("--json", action="store_true",
                  help="print the raw /trace/recent payload"),
         )),
    Verb("shutdown", "gracefully stop a running daemon",
         _ask(lambda client, args: client.shutdown(),
              lambda args, _reply: print(
                  "shutdown requested (live windows will be checkpointed)"
              )),
         _CLIENT),
)


def build_parser() -> argparse.ArgumentParser:
    return verb_parser(
        "repro-serve",
        "Always-on summarization service: live windowed summaries over an "
        "HTTP JSON API.",
        _VERBS,
    )


def main(argv: list[str] | None = None) -> int:
    return run(build_parser(), argv, ServiceError)

