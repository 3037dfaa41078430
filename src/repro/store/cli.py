"""Command-line interface for the persistent summary store.

Ingest events into bucketed sketch artifacts, inspect the manifest, roll
buckets up, and answer aggregate queries from disk:

    python -m repro.store write --root /tmp/flows --namespace web \\
        --bucket 20260728T1201 --assignment hour12 --k 256 --input events.csv
    python -m repro.store ls --root /tmp/flows [--json]
    python -m repro.store stats --root /tmp/flows [--json]
    python -m repro.store compact --root /tmp/flows --namespace web --to hour
    python -m repro.store export --root /tmp/flows --namespace web \\
        --bucket 20260728T12 --part rollup-0000 --out rollup.cws
    python -m repro.store query --root /tmp/flows --namespace web \\
        --function max --assignments hour12 hour13

``write`` reads ``key,weight`` CSV lines (events may repeat keys; they are
pre-aggregated before sampling), or generates a synthetic stream with
``--demo N``.  ``ls --json`` prints the machine-readable listing the
service's ``/status`` endpoint embeds; ``export`` writes one artifact's
exact codec bytes to a standalone ``.cws`` file (readable with
:func:`~repro.store.codec.read_file`).  ``compact`` and ``query`` accept
``--executor SPEC`` (``thread:4``, ``process:4``, ...; see
:mod:`repro.engine.parallel`) to roll buckets up — or serve several
``--namespace`` values — concurrently, with identical results to serial
mode.  Also installed as the
``repro-store`` console script.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.aggregates import AggregationSpec
from repro.ranks.families import get_rank_family
from repro.ranks.hashing import KeyHasher
from repro.sampling.bottomk import BottomKStreamSampler, aggregate_stream
from repro.store.codec import SketchBundle, atomic_write_bytes
from repro.store.store import GRANULARITIES, SummaryStore

__all__ = ["main", "build_parser"]


def _read_events(path: str) -> list[tuple[str, float]]:
    """Parse ``key,weight`` CSV lines (a header row is skipped if present)."""
    events: list[tuple[str, float]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                key, weight = line.rsplit(",", 1)
            except ValueError:
                raise SystemExit(
                    f"{path}:{lineno}: expected 'key,weight', got {line!r}"
                ) from None
            try:
                events.append((key, float(weight)))
            except ValueError:
                # Skip line 1 as a header only when the weight field looks
                # like a column name (no digits); a malformed first data
                # row like "alice,12x3" must abort, not silently vanish.
                if lineno == 1 and not any(ch.isdigit() for ch in weight):
                    continue
                raise SystemExit(
                    f"{path}:{lineno}: non-numeric weight {weight!r}"
                ) from None
    return events


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
        _read_events(args.input)
        if args.input is not None
        else _demo_events(args.demo, args.demo_seed, args.demo_prefix)
    )
    family = get_rank_family(args.family)
    hasher = KeyHasher(args.salt)
    totals = aggregate_stream(events)
    sampler = BottomKStreamSampler(args.k, family, hasher)
    sampler.process_batch(list(totals), np.fromiter(
        totals.values(), dtype=float, count=len(totals)
    ))
    bundle = SketchBundle(
        kind="bottomk",
        sketches={args.assignment: sampler.sketch()},
        family=family,
        hasher_salt=args.salt,
    )
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
    import json

    store = SummaryStore(args.root, create=False)
    if args.json:
        # One machine-readable format shared with the service's /status
        # endpoint (SummaryStore.ls_json), so scripts parse either.
        print(json.dumps(store.ls_json(args.namespace), indent=1,
                         sort_keys=True))
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
    import json

    store = SummaryStore(args.root, create=False)
    stats = store.runtime.stats()
    if args.json:
        print(json.dumps(stats, indent=1, sort_keys=True))
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
    written = store.compact(args.namespace, to=args.to, executor=args.executor)
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
    from repro.engine.parallel import parse_executor_spec
    from repro.engine.queries import Query, QueryEngine

    parse_executor_spec(args.executor)  # even on the 1-namespace path
    store = SummaryStore(args.root, create=False)
    spec = AggregationSpec(
        args.function, tuple(args.assignments), ell=args.ell
    )
    names = ",".join(args.assignments)
    namespaces = args.namespace
    if len(namespaces) == 1:
        engine = QueryEngine.from_store(
            store, namespaces[0], buckets=args.buckets
        )
        estimate = engine.estimate(spec, estimator=args.estimator)
        print(f"{args.function}({names}) ~= {estimate:.6g}")
        return 0
    # Multi-namespace serving: one worker per namespace, each sharing its
    # decoded summary views across the batch (QueryEngine.serve_many).
    query = Query(spec, estimator=args.estimator)
    answers = QueryEngine.serve_many(
        store,
        {namespace: [query] for namespace in namespaces},
        executor=args.executor,
        buckets=(
            None
            if args.buckets is None
            else {namespace: args.buckets for namespace in namespaces}
        ),
    )
    for namespace in namespaces:
        estimate = answers[namespace][0].estimate
        print(f"{namespace}: {args.function}({names}) ~= {estimate:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Persistent summary store: write, list, compact, query.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    write = commands.add_parser(
        "write", help="sample an event stream into a bucketed artifact"
    )
    write.add_argument("--root", required=True, help="store root directory")
    write.add_argument("--namespace", required=True)
    write.add_argument("--bucket", required=True,
                       help="time bucket id (YYYYMMDDTHHMM / YYYYMMDDTHH / "
                            "YYYYMMDD)")
    write.add_argument("--assignment", required=True,
                       help="weight-assignment name for the sampled sketch")
    write.add_argument("--k", type=int, default=256,
                       help="bottom-k sample size (default 256)")
    write.add_argument("--family", default="ipps", choices=["ipps", "exp"])
    write.add_argument("--salt", type=int, default=0,
                       help="key-hasher salt (must match across "
                            "coordinated writers)")
    write.add_argument("--part", default=None,
                       help="artifact part name (default: next part-NNNN)")
    write.add_argument("--overwrite", action="store_true")
    write.add_argument("--input", default=None,
                       help="CSV of key,weight events")
    write.add_argument("--demo", type=int, default=None, metavar="N",
                       help="generate N synthetic events instead of --input")
    write.add_argument("--demo-seed", type=int, default=0)
    write.add_argument("--demo-prefix", default="key",
                       help="key prefix for --demo events (distinct prefixes "
                            "keep buckets key-disjoint)")
    write.set_defaults(func=_cmd_write)

    ls = commands.add_parser("ls", help="list the store manifest")
    ls.add_argument("--root", required=True)
    ls.add_argument("--namespace", default=None)
    ls.add_argument("--json", action="store_true",
                    help="machine-readable listing (namespaces, buckets, "
                         "versions, byte sizes)")
    ls.set_defaults(func=_cmd_ls)

    export = commands.add_parser(
        "export", help="write one artifact's exact bytes to a .cws file"
    )
    export.add_argument("--root", required=True)
    export.add_argument("--namespace", required=True)
    export.add_argument("--bucket", required=True)
    export.add_argument("--part", required=True)
    export.add_argument("--out", required=True, metavar="FILE")
    export.set_defaults(func=_cmd_export)

    stats = commands.add_parser(
        "stats",
        help="runtime-tier state: revisions, query cache, repair journal",
    )
    stats.add_argument("--root", required=True)
    stats.add_argument("--json", action="store_true",
                       help="machine-readable stats")
    stats.set_defaults(func=_cmd_stats)

    executor_help = (
        "execution mode: 'serial' (default), 'thread[:workers]', "
        "or 'process[:workers]'; results are identical across "
        "modes"
    )

    compact = commands.add_parser(
        "compact", help="roll fine buckets up into coarser ones (exact merge)"
    )
    compact.add_argument("--root", required=True)
    compact.add_argument("--namespace", required=True)
    compact.add_argument("--to", default="hour", choices=list(GRANULARITIES))
    compact.add_argument("--executor", default=None, metavar="SPEC",
                         help=f"{executor_help} (buckets roll up "
                              "concurrently)")
    compact.set_defaults(func=_cmd_compact)

    query = commands.add_parser(
        "query", help="estimate an aggregate from the stored summaries"
    )
    query.add_argument("--root", required=True)
    query.add_argument("--namespace", required=True, nargs="+",
                       help="namespace(s) to answer from; several "
                            "namespaces are served concurrently under "
                            "--executor")
    query.add_argument("--function", required=True,
                       choices=["single", "min", "max", "l1", "lth_largest"])
    query.add_argument("--assignments", required=True, nargs="+")
    query.add_argument("--buckets", default=None, nargs="+",
                       help="restrict to these bucket ids (default: all)")
    query.add_argument("--estimator", default="auto")
    query.add_argument("--ell", type=int, default=None,
                       help="ℓ for lth_largest")
    query.add_argument("--executor", default=None, metavar="SPEC",
                       help=executor_help)
    query.set_defaults(func=_cmd_query)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError, KeyError, FileNotFoundError, FileExistsError,
        TimeoutError,
    ) as err:
        # str(KeyError) wraps its message in quotes; unwrap for clean output
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        raise SystemExit(f"error: {message}") from err


if __name__ == "__main__":
    sys.exit(main())
