"""Command-line interface for the always-on summarization service.

Run the daemon, check it, and talk to it:

    repro-serve serve --root /tmp/flows --namespace web \\
        --assignments bytes packets --k 256 --port 8765
    repro-serve serve --config service.json
    repro-serve status --port 8765
    repro-serve ingest --port 8765 --namespace web --assignment bytes \\
        --input events.csv --sync
    repro-serve query --port 8765 --namespace web --function max \\
        --assignments bytes packets
    repro-serve stats --port 8765            # counts + tier via /status
    repro-serve metrics --port 8765          # Prometheus text scrape
    repro-serve trace --port 8765 --limit 20 # recent request/span traces

Cluster mode (see ``repro.service.cluster``):

    repro-serve serve --root /tmp/w1 --namespace web \\
        --assignments bytes packets --cluster-slots 16 --port 9001
    repro-serve coordinate --root /tmp/coord --namespace web \\
        --assignments bytes packets --slots 16 --replication 2 --port 8900
    repro-serve cluster-join --port 8900 --worker-id w1 --worker-port 9001
    repro-serve cluster-status --port 8900
    repro-serve repairs --port 8900          # replication health + journal
    repro-serve repairs --port 8900 --run    # force one repair tick now
    repro-serve query --port 8900 --namespace web --function max \\
        --assignments bytes packets    # exact merge across all workers

The coordinator self-heals: a worker that stops answering heartbeats is
promoted to *failed* after ``--fail-after`` seconds and its slots are
re-replicated onto survivors from healthy replicas — no operator action.
``repro-serve repairs`` shows the journal driving that convergence.

``serve`` runs in the foreground until SIGTERM/SIGINT (or a client's
``POST /shutdown``), then drains the ingest queue and checkpoints every
live window into the store, so the next ``serve`` resumes the stream
bit-identically.  Also installed as the ``repro-serve`` console script;
``python -m repro.service`` is equivalent.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys

from repro.service.client import ServiceClient, ServiceError
from repro.service.config import NamespaceConfig, ServiceConfig
from repro.service.temporal import parse_duration
from repro.store.store import GRANULARITIES

__all__ = ["main", "build_parser"]


def _config_from_args(args: argparse.Namespace) -> ServiceConfig:
    if (args.config is None) == (args.root is None):
        raise SystemExit(
            "pass exactly one of --config FILE or --root DIR (with "
            "--namespace/--assignments)"
        )
    if args.config is not None:
        config = ServiceConfig.from_file(args.config)
        if args.port is not None:
            config = config.with_port(args.port)
    else:
        if not args.namespace or not args.assignments:
            raise SystemExit(
                "--root needs --namespace and --assignments to describe the "
                "served namespace"
            )
        namespace = NamespaceConfig(
            name=args.namespace,
            assignments=tuple(args.assignments),
            k=args.k,
            family=args.family,
            salt=args.salt,
        )
        config = ServiceConfig(
            store_root=args.root,
            namespaces=(namespace,),
            host=args.host,
            port=args.port if args.port is not None else 8765,
            granularity=args.granularity,
            compact_to=None if args.compact_to == "off" else args.compact_to,
            compact_every_s=args.compact_every,
            tick_s=args.tick,
            trace_log=args.trace_log,
        )
    if getattr(args, "cluster_slots", None):
        # Cluster worker mode: every logical namespace expands into its
        # per-slot worker namespaces, so a coordinator can route each key
        # slot here and fetch exactly that slot's partial bundle back.
        from dataclasses import replace as _replace

        from repro.service.cluster import slot_namespace_configs

        config = _replace(config, namespaces=tuple(
            slot_config
            for ns in config.namespaces
            for slot_config in slot_namespace_configs(ns, args.cluster_slots)
        ))
    return config


async def _serve(config: ServiceConfig, fault_plan=None) -> None:
    from repro.service.server import SummaryService

    service = SummaryService(config)
    if fault_plan is not None:
        service.install_faults(fault_plan)
    await service.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, service.request_shutdown)
    print(
        f"repro-serve listening on http://{config.host}:{service.port} "
        f"(store {config.store_root}, namespaces: "
        f"{', '.join(ns.name for ns in config.namespaces)})",
        flush=True,
    )
    await service.run()
    print("repro-serve stopped (live windows checkpointed)", flush=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    asyncio.run(_serve(
        _config_from_args(args),
        fault_plan=_load_fault_plan(args.fault_plan),
    ))
    return 0


def _client(args: argparse.Namespace) -> ServiceClient:
    return ServiceClient(args.host, args.port, timeout=args.timeout)


def _coordinator_config_from_args(args: argparse.Namespace):
    from repro.service.cluster import CoordinatorConfig

    if (args.config is None) == (args.root is None):
        raise SystemExit(
            "pass exactly one of --config FILE or --root DIR (with "
            "--namespace/--assignments)"
        )
    if args.config is not None:
        config = CoordinatorConfig.from_file(args.config)
        if args.port is not None:
            config = config.with_port(args.port)
        return config
    if not args.namespace or not args.assignments:
        raise SystemExit(
            "--root needs --namespace and --assignments to describe the "
            "coordinated namespace"
        )
    namespace = NamespaceConfig(
        name=args.namespace,
        assignments=tuple(args.assignments),
        k=args.k,
        family=args.family,
        salt=args.salt,
    )
    return CoordinatorConfig(
        root=args.root,
        namespaces=(namespace,),
        host=args.host,
        port=args.port if args.port is not None else 8900,
        n_slots=args.slots,
        replication=args.replication,
        heartbeat_s=args.heartbeat,
        probe_concurrency=args.probe_concurrency,
        fail_after_s=args.fail_after,
        repair_interval_s=args.repair_interval,
        repair_max_attempts=args.repair_max_attempts,
        anti_entropy=not args.no_anti_entropy,
    )


def _load_fault_plan(path: str | None):
    if path is None:
        return None
    from repro.service.faults import FaultPlan

    return FaultPlan.from_file(path)


async def _coordinate(config, fault_plan=None) -> None:
    from repro.service.cluster import CoordinatorService

    service = CoordinatorService(config)
    if fault_plan is not None:
        service.install_faults(fault_plan)
    await service.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(signum, service.request_shutdown)
    print(
        f"repro-serve coordinating on http://{config.host}:{service.port} "
        f"(root {config.root}, {config.n_slots} slots x"
        f"{config.replication}, namespaces: "
        f"{', '.join(ns.name for ns in config.namespaces)})",
        flush=True,
    )
    await service.run()
    print("repro-serve coordinator stopped", flush=True)


def _cmd_coordinate(args: argparse.Namespace) -> int:
    asyncio.run(_coordinate(
        _coordinator_config_from_args(args),
        fault_plan=_load_fault_plan(args.fault_plan),
    ))
    return 0


def _cmd_cluster_join(args: argparse.Namespace) -> int:
    with _client(args) as client:
        result = client.cluster_join(
            args.worker_id, args.worker_host, args.worker_port
        )
    handoff = result.get("handoff") or {}
    print(
        f"worker {result['worker_id']} joined "
        f"(slots {result.get('slots', [])}, "
        f"{handoff.get('artifacts', 0)} artifacts handed off"
        + (f", degraded: {handoff['degraded']}"
           if handoff.get("degraded") else "")
        + ")"
    )
    return 0


def _cmd_cluster_leave(args: argparse.Namespace) -> int:
    with _client(args) as client:
        result = client.cluster_leave(args.worker_id)
    handoff = result.get("handoff") or {}
    print(
        f"worker {result['worker_id']} left "
        f"(slots {result.get('slots', [])}, "
        f"{handoff.get('artifacts', 0)} artifacts handed off"
        + (f", degraded: {handoff['degraded']}"
           if handoff.get("degraded") else "")
        + ")"
    )
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    with _client(args) as client:
        print(json.dumps(client.cluster_status(), indent=1, sort_keys=True))
    return 0


def _cmd_repairs(args: argparse.Namespace) -> int:
    with _client(args) as client:
        if args.run:
            tick = client.repairs_run()
            print(
                f"repair tick: promoted {tick.get('promoted', [])}, "
                f"{tick.get('enqueued', 0)} enqueued, "
                f"{tick.get('done', 0)} done, "
                f"{tick.get('failed', 0)} failed, "
                f"{tick.get('requeued', 0)} requeued"
            )
        view = client.repairs(limit=args.limit)
    if args.json:
        print(json.dumps(view, indent=1, sort_keys=True))
        return 0
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
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    with _client(args) as client:
        print(json.dumps(client.status(), indent=1, sort_keys=True))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.store.cli import _read_events

    events = _read_events(args.input)
    keys = [key for key, _weight in events]
    weights = [weight for _key, weight in events]
    with _client(args) as client:
        result = client.ingest(
            args.namespace, keys, {args.assignment: weights}, sync=args.sync
        )
    print(
        f"ingested {result['queued']} events into {args.namespace} "
        f"({'applied' if result.get('applied') else 'queued'})"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    with _client(args) as client:
        if args.jaccard:
            result = client.jaccard(
                args.namespace, args.assignments, variant=args.variant,
                since=args.since, until=args.until,
            )
        elif args.window is not None:
            result = client.window_series(
                args.namespace, args.function, args.assignments,
                window=args.window, step=args.step, decay=args.decay,
                anchor=args.anchor, estimator=args.estimator, ell=args.ell,
                keys=args.keys, since=args.since, until=args.until,
            )
            names = ",".join(args.assignments)
            print(
                f"{args.namespace}: {args.function}({names}) over "
                f"{len(result['windows'])} windows "
                f"[window {result['window_s']:g}s step {result['step_s']:g}s"
                + (f" decay {result['decay_s']:g}s"
                   if result.get("decay_s") else "")
                + f", {result['estimator']}, version {result['version']}]"
            )
            for row in result["windows"]:
                if row.get("empty"):
                    print(f"  {row['start']} .. {row['end']}  (no data)")
                else:
                    print(
                        f"  {row['start']} .. {row['end']}  "
                        f"~= {row['estimate']:.6g}"
                    )
            return 0
        else:
            result = client.estimate(
                args.namespace, args.function, args.assignments,
                estimator=args.estimator, ell=args.ell, keys=args.keys,
                since=args.since, until=args.until,
                decay=args.decay, anchor=args.anchor,
            )
    names = ",".join(args.assignments)
    label = "jaccard" if args.jaccard else args.function
    print(
        f"{args.namespace}: {label}({names}) ~= {result['estimate']:.6g} "
        f"[{result['estimator']}, version {result['version']}, "
        f"{'cached' if result['cached'] else 'computed'}]"
    )
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


def _cmd_watch(args: argparse.Namespace) -> int:
    spec = {
        "kind": "estimate",
        "function": args.function,
        "assignments": list(args.assignments),
        "estimator": args.estimator,
    }
    for field in ("ell", "keys", "since", "until", "window", "step",
                  "decay", "anchor"):
        value = getattr(args, field)
        if value is not None:
            spec[field] = value
    threshold = (
        {"above": args.above} if args.above is not None
        else {"below": args.below}
    )
    with _client(args) as client:
        result = client.watch_register(
            args.namespace, spec, threshold, cadence_s=args.every
        )
    print(_format_watch(result["watch"]))
    return 0


def _cmd_watches(args: argparse.Namespace) -> int:
    with _client(args) as client:
        watches = client.watches(namespace=args.namespace)
    if not watches:
        print("no continuous queries registered")
        return 0
    for watch in watches:
        print(_format_watch(watch))
    return 0


def _cmd_unwatch(args: argparse.Namespace) -> int:
    with _client(args) as client:
        client.watch_remove(args.id)
    print(f"removed watch {args.id}")
    return 0


def _cmd_watch_poll(args: argparse.Namespace) -> int:
    with _client(args) as client:
        result = client.watch_poll(
            args.id, after=args.after, timeout=args.wait
        )
    if result.get("timed_out"):
        print(f"watch {args.id}: no update after {args.wait:g}s")
        return 1
    print(_format_watch(result["watch"]))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    with _client(args) as client:
        status = client.status()
    subset = {
        key: status.get(key)
        for key in ("stats", "planner", "runtime", "queue")
    }
    if "repairs" in status:  # coordinator: repair-journal tallies
        subset["repairs"] = status["repairs"]
    print(json.dumps(subset, indent=1, sort_keys=True))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    with _client(args) as client:
        text = client.metrics()
    sys.stdout.write(text)
    if text and not text.endswith("\n"):
        sys.stdout.write("\n")
    return 0


def _format_span(span: dict) -> str:
    parent = span.get("parent")
    line = (
        f"{span['trace']} {span['span']}"
        f"{' <- ' + parent if parent else ''}"
        f"  {span['name']}  {span['duration_ms']:.3f}ms  {span['status']}"
    )
    tags = span.get("tags")
    if tags:
        rendered = " ".join(
            f"{key}={tags[key]}" for key in sorted(tags)
        )
        line += f"  [{rendered}]"
    if span.get("error"):
        line += f"  error={span['error']}"
    return line


def _cmd_trace(args: argparse.Namespace) -> int:
    with _client(args) as client:
        result = client.trace_recent(limit=args.limit)
    if args.json:
        print(json.dumps(result, indent=1, sort_keys=True))
        return 0
    for span in result["spans"]:
        print(_format_span(span))
    dropped = result.get("dropped_log_writes", 0)
    if dropped:
        print(f"({dropped} trace-log writes dropped)", file=sys.stderr)
    return 0


def _cmd_shutdown(args: argparse.Namespace) -> int:
    with _client(args) as client:
        client.shutdown()
    print("shutdown requested (live windows will be checkpointed)")
    return 0


def _add_client_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument("--timeout", type=float, default=30.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Always-on summarization service: live windowed summaries "
            "over an HTTP JSON API."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="run the daemon in the foreground"
    )
    serve.add_argument("--config", default=None,
                       help="service config JSON (see ServiceConfig)")
    serve.add_argument("--root", default=None, help="store root directory")
    serve.add_argument("--namespace", default=None)
    serve.add_argument("--assignments", nargs="+", default=None)
    serve.add_argument("--k", type=int, default=256)
    serve.add_argument("--family", default="ipps", choices=["ipps", "exp"])
    serve.add_argument("--salt", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port (default 8765; 0 = ephemeral); "
                            "overrides the config file")
    serve.add_argument("--granularity", default="minute",
                       choices=list(GRANULARITIES),
                       help="live-window rotation granularity")
    serve.add_argument("--compact-to", default="hour",
                       choices=[*GRANULARITIES, "off"],
                       help="background compaction target ('off' disables)")
    serve.add_argument("--compact-every", type=float, default=300.0,
                       metavar="SECONDS")
    serve.add_argument("--tick", type=float, default=1.0, metavar="SECONDS",
                       help="rotation check interval")
    serve.add_argument("--cluster-slots", type=int, default=None,
                       metavar="N",
                       help="cluster worker mode: expand every namespace "
                            "into N per-slot worker namespaces (must match "
                            "the coordinator's n_slots)")
    serve.add_argument("--fault-plan", default=None, metavar="FILE",
                       help="deterministic fault-injection plan JSON "
                            "(testing: see repro.service.faults)")
    serve.add_argument("--trace-log", default=None, metavar="FILE",
                       help="append every finished span to this JSONL "
                            "file (the /trace/recent ring, durably)")
    serve.set_defaults(func=_cmd_serve)

    coordinate = commands.add_parser(
        "coordinate",
        help="run the cluster coordinator (membership, routed ingest, "
             "exact merged queries)",
    )
    coordinate.add_argument("--config", default=None,
                            help="coordinator config JSON "
                                 "(see CoordinatorConfig)")
    coordinate.add_argument("--root", default=None,
                            help="coordinator state directory "
                                 "(runtime.sqlite: membership + cache)")
    coordinate.add_argument("--namespace", default=None)
    coordinate.add_argument("--assignments", nargs="+", default=None)
    coordinate.add_argument("--k", type=int, default=256)
    coordinate.add_argument("--family", default="ipps",
                            choices=["ipps", "exp"])
    coordinate.add_argument("--salt", type=int, default=0)
    coordinate.add_argument("--host", default="127.0.0.1")
    coordinate.add_argument("--port", type=int, default=None,
                            help="bind port (default 8900; 0 = ephemeral)")
    coordinate.add_argument("--slots", type=int, default=16,
                            help="key slots partitioning the key space")
    coordinate.add_argument("--replication", type=int, default=1,
                            help="owners per slot (2 = replica pairs)")
    coordinate.add_argument("--heartbeat", type=float, default=2.0,
                            metavar="SECONDS",
                            help="worker /health probe cadence")
    coordinate.add_argument("--probe-concurrency", type=int, default=8,
                            metavar="N",
                            help="concurrent heartbeat probes per round")
    coordinate.add_argument("--fail-after", type=float, default=10.0,
                            metavar="SECONDS",
                            help="grace window before a heartbeat-dead "
                                 "worker is promoted to failed and its "
                                 "slots re-replicated")
    coordinate.add_argument("--repair-interval", type=float, default=2.0,
                            metavar="SECONDS",
                            help="background repair tick cadence "
                                 "(0 disables the background loop; "
                                 "POST /repairs/run still works)")
    coordinate.add_argument("--repair-max-attempts", type=int, default=5,
                            metavar="N",
                            help="attempts before a repair op is marked "
                                 "failed (anti-entropy re-plans it while "
                                 "the copy stays stale)")
    coordinate.add_argument("--no-anti-entropy", action="store_true",
                            help="disable periodic stale-copy repair "
                                 "planning")
    coordinate.add_argument("--fault-plan", default=None, metavar="FILE",
                            help="deterministic fault-injection plan JSON "
                                 "(testing: see repro.service.faults)")
    coordinate.set_defaults(func=_cmd_coordinate)

    cluster_join = commands.add_parser(
        "cluster-join", help="register a worker with a coordinator"
    )
    _add_client_args(cluster_join)
    cluster_join.add_argument("--worker-id", required=True)
    cluster_join.add_argument("--worker-host", default="127.0.0.1")
    cluster_join.add_argument("--worker-port", type=int, required=True)
    cluster_join.set_defaults(func=_cmd_cluster_join)

    cluster_leave = commands.add_parser(
        "cluster-leave", help="deregister a worker (handoff away first)"
    )
    _add_client_args(cluster_leave)
    cluster_leave.add_argument("--worker-id", required=True)
    cluster_leave.set_defaults(func=_cmd_cluster_leave)

    cluster_status = commands.add_parser(
        "cluster-status",
        help="membership, slot assignment, and health from a coordinator",
    )
    _add_client_args(cluster_status)
    cluster_status.set_defaults(func=_cmd_cluster_status)

    repairs = commands.add_parser(
        "repairs",
        help="replication health and the repair journal from a coordinator",
    )
    _add_client_args(repairs)
    repairs.add_argument("--run", action="store_true",
                         help="run one synchronous repair tick first")
    repairs.add_argument("--limit", type=int, default=None,
                         help="journal rows to show (default 200)")
    repairs.add_argument("--json", action="store_true",
                         help="print the raw /repairs JSON")
    repairs.set_defaults(func=_cmd_repairs)

    status = commands.add_parser("status", help="print the daemon's status")
    _add_client_args(status)
    status.set_defaults(func=_cmd_status)

    ingest = commands.add_parser(
        "ingest", help="POST a key,weight CSV as one ingest batch"
    )
    _add_client_args(ingest)
    ingest.add_argument("--namespace", required=True)
    ingest.add_argument("--assignment", required=True,
                        help="assignment the CSV weights belong to")
    ingest.add_argument("--input", required=True,
                        help="CSV of key,weight events")
    ingest.add_argument("--sync", action="store_true",
                        help="wait until the batch is applied")
    ingest.set_defaults(func=_cmd_ingest)

    query = commands.add_parser("query", help="one-shot estimate query")
    _add_client_args(query)
    query.add_argument("--namespace", required=True)
    query.add_argument("--function", default="max",
                       choices=["single", "min", "max", "l1", "lth_largest"])
    query.add_argument("--assignments", required=True, nargs="+")
    query.add_argument("--estimator", default="auto")
    query.add_argument("--ell", type=int, default=None)
    query.add_argument("--keys", nargs="+", default=None,
                       help="restrict to these keys (subpopulation query)")
    query.add_argument("--since", default=None, metavar="BUCKET",
                       help="inclusive start bucket id")
    query.add_argument("--until", default=None, metavar="BUCKET",
                       help="inclusive end bucket id")
    query.add_argument("--window", default=None, metavar="DUR",
                       help="windowed series, e.g. 15m (with --step: "
                            "sliding; alone: tumbling)")
    query.add_argument("--step", default=None, metavar="DUR",
                       help="window stride, e.g. 1m (requires --window)")
    query.add_argument("--decay", default=None, metavar="DUR",
                       help="exponential half-life for time-decayed "
                            "weights, e.g. 1h")
    query.add_argument("--anchor", type=float, default=None,
                       metavar="EPOCH",
                       help="decay/window anchor as POSIX seconds "
                            "(default: end of available data)")
    query.add_argument("--jaccard", action="store_true",
                       help="weighted Jaccard between two assignments")
    query.add_argument("--variant", default="l", choices=["s", "l"],
                       help="Jaccard min-estimator variant")
    query.set_defaults(func=_cmd_query)

    watch = commands.add_parser(
        "watch",
        help="register a continuous query (persists in runtime.sqlite)",
    )
    _add_client_args(watch)
    watch.add_argument("--namespace", required=True)
    watch.add_argument("--function", default="max",
                       choices=["single", "min", "max", "l1", "lth_largest"])
    watch.add_argument("--assignments", required=True, nargs="+")
    watch.add_argument("--estimator", default="auto")
    watch.add_argument("--ell", type=int, default=None)
    watch.add_argument("--keys", nargs="+", default=None)
    watch.add_argument("--since", default=None, metavar="BUCKET")
    watch.add_argument("--until", default=None, metavar="BUCKET")
    watch.add_argument("--window", default=None, metavar="DUR")
    watch.add_argument("--step", default=None, metavar="DUR")
    watch.add_argument("--decay", default=None, metavar="DUR")
    watch.add_argument("--anchor", type=float, default=None, metavar="EPOCH")
    bound = watch.add_mutually_exclusive_group(required=True)
    bound.add_argument("--above", type=float, default=None,
                       help="trigger when the estimate exceeds this")
    bound.add_argument("--below", type=float, default=None,
                       help="trigger when the estimate drops below this")
    watch.add_argument("--every", type=parse_duration, required=True,
                       metavar="DUR",
                       help="evaluation cadence (e.g. 30s, 5m)")
    watch.set_defaults(func=_cmd_watch)

    watches = commands.add_parser(
        "watches", help="list continuous queries and their last answers"
    )
    _add_client_args(watches)
    watches.add_argument("--namespace", default=None)
    watches.set_defaults(func=_cmd_watches)

    unwatch = commands.add_parser(
        "unwatch", help="remove a continuous query"
    )
    _add_client_args(unwatch)
    unwatch.add_argument("--id", type=int, required=True)
    unwatch.set_defaults(func=_cmd_unwatch)

    watch_poll = commands.add_parser(
        "watch-poll",
        help="long-poll a continuous query for its next update",
    )
    _add_client_args(watch_poll)
    watch_poll.add_argument("--id", type=int, required=True)
    watch_poll.add_argument("--after", type=int, default=0,
                            help="last seen update_seq cursor")
    watch_poll.add_argument("--wait", type=float, default=30.0,
                            metavar="SECONDS",
                            help="server-side poll deadline")
    watch_poll.set_defaults(func=_cmd_watch_poll)

    stats = commands.add_parser(
        "stats",
        help="a daemon's counts, cache and runtime tier (repro-store "
             "stats reads a root offline)",
    )
    _add_client_args(stats)
    stats.set_defaults(func=_cmd_stats)

    metrics = commands.add_parser(
        "metrics",
        help="scrape a daemon's /metrics (Prometheus text exposition)",
    )
    _add_client_args(metrics)
    metrics.set_defaults(func=_cmd_metrics)

    trace = commands.add_parser(
        "trace",
        help="show a daemon's most recent request/span traces",
    )
    _add_client_args(trace)
    trace.add_argument("--limit", type=int, default=50,
                       help="maximum spans to fetch (newest first)")
    trace.add_argument("--json", action="store_true",
                       help="print the raw /trace/recent payload")
    trace.set_defaults(func=_cmd_trace)

    shutdown = commands.add_parser(
        "shutdown", help="gracefully stop a running daemon"
    )
    _add_client_args(shutdown)
    shutdown.set_defaults(func=_cmd_shutdown)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ServiceError as err:
        raise SystemExit(f"error: {err}") from err
    except (ValueError, KeyError, FileNotFoundError, ConnectionError) as err:
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        raise SystemExit(f"error: {message}") from err


if __name__ == "__main__":
    sys.exit(main())
