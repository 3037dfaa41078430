"""Command-line interface for the persistent summary store.

Ingest events into bucketed sketch artifacts, inspect the manifest, roll
buckets up, and answer aggregate queries from disk:

    python -m repro.store write --root /tmp/flows --namespace web \\
        --bucket 20260728T1201 --assignment hour12 --k 256 --input events.csv
    python -m repro.store ls | stats --root /tmp/flows [--json]
    python -m repro.store compact --root /tmp/flows --namespace web --to hour
    python -m repro.store query --root /tmp/flows --namespace web \\
        --function max --assignments hour12 hour13

``write`` reads ``key,weight`` CSV lines (events may repeat keys; the
:class:`~repro.engine.ShardedSummarizer` every writer samples with sums
them per key), or generates a synthetic stream with ``--demo N``.
``ls --json`` prints the listing the service's ``/status`` embeds;
``export`` writes one artifact's exact codec bytes to a ``.cws`` file;
``query`` answers one or several namespaces.  Also installed as the
``repro-store`` console script.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.cliutil import (
    ESTIMATOR, SAMPLING, Verb, flag, print_json, read_events, run,
    verb_parser,
)
from repro.core.aggregates import FUNCTIONS, AggregationSpec
from repro.engine.sharded import ShardedSummarizer
from repro.ranks.families import get_rank_family
from repro.ranks.hashing import KeyHasher
from repro.store.codec import atomic_write_bytes
from repro.store.store import GRANULARITIES, SummaryStore

__all__ = ["main", "build_parser"]


def _demo_events(
    count: int, seed: int, prefix: str
) -> list[tuple[str, float]]:
    """Deterministic synthetic event stream (skewed weights, repeated keys)."""
    rng = np.random.default_rng(seed)
    key_ids = rng.integers(0, max(1, count // 4), count)
    weights = rng.pareto(1.3, count) * 10.0 + 0.1
    return [
        (f"{prefix}{key_id}", float(weight))
        for key_id, weight in zip(key_ids.tolist(), weights.tolist())
    ]


def _cmd_write(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.demo is None):
        raise SystemExit("pass exactly one of --input or --demo")
    events = (
        read_events(args.input)
        if args.input is not None
        else _demo_events(args.demo, args.demo_seed, args.demo_prefix)
    )
    engine = ShardedSummarizer(
        args.k, [args.assignment], get_rank_family(args.family),
        KeyHasher(args.salt),
    )
    engine.ingest_stream(args.assignment, events)
    bundle = engine.sketch_bundle()
    store = SummaryStore(args.root)
    entry = store.write(
        args.namespace, args.bucket, bundle, part=args.part,
        overwrite=args.overwrite,
    )
    print(
        f"wrote {entry.namespace}/{entry.bucket}/{entry.part} "
        f"({entry.kind}, assignment {args.assignment}, "
        f"{len(events)} events -> {len(bundle.sketches[args.assignment])} "
        f"sampled keys, {entry.nbytes:,} bytes)"
    )
    return 0


def _cmd_ls(args: argparse.Namespace) -> int:
    store = SummaryStore(args.root, create=False)
    if args.json:
        # One machine-readable format shared with the service's /status
        # endpoint (SummaryStore.ls_json), so scripts parse either.
        print_json(store.ls_json(args.namespace))
    else:
        print(store.ls(args.namespace))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    store = SummaryStore(args.root, create=False)
    blob = store.read_blob(args.namespace, args.bucket, args.part)
    atomic_write_bytes(args.out, blob)
    print(
        f"exported {args.namespace}/{args.bucket}/{args.part} "
        f"({len(blob):,} bytes) -> {args.out}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    store = SummaryStore(args.root, create=False)
    stats = store.runtime.stats()
    if args.json:
        print_json(stats)
        return 0
    print(f"runtime tier  {stats['path']}")
    print(f"schema        v{stats['schema_version']}")
    print(f"revision      {stats['revision']}")
    for name, info in sorted(stats["namespaces"].items()):
        print(
            f"namespace     {name}: {info['entries']} entries, "
            f"{info['nbytes']:,} bytes, rev {info.get('rev', 0)} "
            f"(bundles rev {info.get('bundle_rev', 0)})"
        )
    cache = stats["cache"]
    print(f"query cache   {cache['entries']} entries, {cache['hits']} hits")
    repairs = stats.get("repairs") or {}
    if repairs.get("total"):
        print(
            f"repairs       {repairs['queued']} queued, "
            f"{repairs['active']} active, {repairs['done']} done, "
            f"{repairs['failed']} failed"
        )
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    store = SummaryStore(args.root, create=False)
    written = store.compact(args.namespace, to=args.to)
    if not written:
        print(f"nothing to compact for namespace {args.namespace!r}")
        return 0
    for entry in written:
        print(
            f"compacted -> {entry.namespace}/{entry.bucket}/{entry.part} "
            f"({entry.nbytes:,} bytes)"
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.engine.queries import Query, QueryEngine

    query = Query(
        AggregationSpec(args.function, tuple(args.assignments), ell=args.ell),
        estimator=args.estimator,
    )
    # one engine per namespace; one namespace is answered alone, unprefixed
    answers = QueryEngine.serve_many(
        args.root,
        {namespace: [query] for namespace in args.namespace},
        buckets=(
            None if args.buckets is None
            else dict.fromkeys(args.namespace, args.buckets)
        ),
    )
    names = ",".join(args.assignments)
    for namespace in args.namespace:
        prefix = f"{namespace}: " if len(args.namespace) > 1 else ""
        print(
            f"{prefix}{args.function}({names}) ~= "
            f"{answers[namespace][0].estimate:.6g}"
        )
    return 0


#: every verb's store
_ROOT = flag("--root", required=True, help="store root directory")
_NAMESPACE = flag("--namespace", required=True)

_VERBS = (
    Verb("write", "sample an event stream into a bucketed artifact",
         _cmd_write, (
             _ROOT,
             _NAMESPACE,
             flag("--bucket", required=True,
                  help="time bucket id (YYYYMMDDTHHMM / YYYYMMDDTHH / "
                       "YYYYMMDD)"),
             flag("--assignment", required=True,
                  help="weight-assignment name for the sampled sketch"),
             SAMPLING,
             flag("--part", default=None,
                  help="artifact part name (default: next part-NNNN)"),
             flag("--overwrite", action="store_true"),
             flag("--input", default=None, help="CSV of key,weight events"),
             flag("--demo", type=int, default=None, metavar="N",
                  help="generate N synthetic events instead of --input"),
             flag("--demo-seed", type=int, default=0),
             flag("--demo-prefix", default="key",
                  help="key prefix for --demo events (distinct prefixes "
                       "keep buckets key-disjoint)"),
         )),
    Verb("ls", "list the store manifest", _cmd_ls, (
        _ROOT,
        flag("--namespace", default=None),
        flag("--json", action="store_true",
             help="machine-readable listing (namespaces, buckets, "
                  "versions, byte sizes)"),
    )),
    Verb("export", "write one artifact's exact bytes to a .cws file",
         _cmd_export, (
             _ROOT,
             _NAMESPACE,
             flag("--bucket", required=True),
             flag("--part", required=True),
             flag("--out", required=True, metavar="FILE"),
         )),
    Verb("stats", "runtime-tier state: revisions, query cache, repair journal",
         _cmd_stats, (
             _ROOT,
             flag("--json", action="store_true",
                  help="machine-readable stats"),
         )),
    Verb("compact", "roll fine buckets up into coarser ones (exact merge)",
         _cmd_compact, (
             _ROOT,
             _NAMESPACE,
             flag("--to", default="hour", choices=list(GRANULARITIES)),
         )),
    Verb("query", "estimate an aggregate from the stored summaries",
         _cmd_query, (
             _ROOT,
             flag("--namespace", required=True, nargs="+",
                  help="namespace(s) to answer from"),
             flag("--function", required=True, choices=FUNCTIONS),
             flag("--assignments", required=True, nargs="+"),
             flag("--buckets", default=None, nargs="+",
                  help="restrict to these bucket ids (default: all)"),
             ESTIMATOR,
         )),
)


def build_parser() -> argparse.ArgumentParser:
    return verb_parser(
        "python -m repro.store",
        "Persistent summary store: write, list, compact, query.",
        _VERBS,
    )


def main(argv: list[str] | None = None) -> int:
    return run(build_parser(), argv)

