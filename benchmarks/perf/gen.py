"""Seeded script generation: every key, weight and predicate of a run.

One three-phase script per workload:

* ``load``  — bulk ingest batches, then one full-population query (its
  return ends the ingest clock, so deferred finalization is inside it),
  then the other three full-population answers;
* ``live``  — steps of *one ingest batch, one fresh query, a few warm
  queries*, then the full-population answers again;
* ``quiet`` — distinct-predicate queries on unchanged data, then a
  ``replay`` of the first few (result-cache hits on a served SUT).

The SUT receives only these inputs.  Request bodies are encoded here,
before any clock starts.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

from .spec import FUNCTIONS, NAMESPACE, Workload

DEFAULT_SEED = 0
#: stored-bucket keys start here, disjoint from every live key
PRELOAD_KEY_BASE = 10_000_000
#: first stored day-bucket (any fixed past date)
PRELOAD_FIRST_DAY = 20240101


def resolve_seed(argument: "int | None") -> int:
    """Argument > ``REPRO_BENCH_SEED`` > default."""
    if argument is not None:
        return int(argument)
    env = os.environ.get("REPRO_BENCH_SEED")
    return int(env) if env else DEFAULT_SEED


@dataclass
class Op:
    """One scripted operation.

    ``role`` says what the op measures: ``ingest``; ``full`` (the query
    that ends the load clock); ``fresh`` (first query after new data);
    ``warm`` (unseen predicate, unchanged data); ``hit`` (replayed
    query); ``check`` (a full-population answer kept for verification
    and the error metric only); ``persist`` (library only: the answer
    of a summary written to and reloaded from a ``SummaryStore``).
    """

    phase: str
    role: str
    #: ingest keys, or a query's ``key_in`` keys (None: whole population)
    keys: "np.ndarray | None" = None
    weights: "dict[str, np.ndarray] | None" = None
    function: "str | None" = None
    assignments: "tuple[str, ...] | None" = None
    #: JSON request body (served adapters)
    body: bytes = b""

    @property
    def is_ingest(self) -> bool:
        return self.weights is not None


@dataclass
class Script:
    workload: Workload
    seed: int
    ops: list
    #: ``(bucket, keys, weights)`` of every stored day-bucket
    preload: list

    @property
    def events(self) -> int:
        return sum(len(op.keys) for op in self.ops if op.is_ingest)


def _encode(op: Op) -> bytes:
    if op.is_ingest:
        payload = {
            "namespace": NAMESPACE,
            "keys": op.keys.tolist(),
            "weights": {n: w.tolist() for n, w in op.weights.items()},
            "sync": True,
        }
    else:
        payload = {
            "kind": "estimate",
            "namespace": NAMESPACE,
            "function": op.function,
            "assignments": list(op.assignments),
            "estimator": "auto",
        }
        if op.keys is not None:
            payload["keys"] = op.keys.tolist()
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def generate(workload: Workload, seed: int) -> Script:
    """The workload's script for ``seed``; same seed, same bytes."""
    rng = np.random.default_rng(
        [seed, zlib.crc32(workload.name.encode("utf-8"))]
    )
    names = workload.assignments

    def draw_keys(count: int) -> np.ndarray:
        # squared uniform: repeats, with a heavy head the samples keep
        return (rng.random(count) ** 2 * workload.universe).astype(np.int64)

    def draw_weights(count: int) -> dict:
        return {n: rng.pareto(1.3, count) + 0.05 for n in names}

    def ingest(phase: str, count: int) -> Op:
        return Op(phase, "ingest", draw_keys(count), draw_weights(count))

    def query(phase: str, role: str, position: int, keys=None) -> Op:
        function = FUNCTIONS[position % len(FUNCTIONS)]
        which = (
            (names[position % len(names)],) if function == "single"
            else names
        )
        return Op(phase, role, keys, None, function, which)

    def full_population(phase: str, first_role: str) -> list:
        return [
            query(phase, first_role if i == 0 else "check", i)
            for i in range(len(FUNCTIONS))
        ]

    ops = [
        ingest("load", workload.load_events)
        for _ in range(workload.load_batches)
    ]
    ops += full_population("load", "full")
    position = 0
    for step in range(workload.live_steps):
        ops.append(ingest("live", workload.live_events))
        ops.append(query("live", "fresh", 0))
        for _ in range(workload.live_warm):
            ops.append(query(
                "live", "warm", position,
                draw_keys(workload.predicate_keys),
            ))
            position += 1
    ops += full_population("live", "check")
    quiet = [
        query("quiet", "warm", i, draw_keys(workload.predicate_keys))
        for i in range(workload.quiet)
    ]
    ops += quiet
    for op in quiet[:workload.replay]:
        ops.append(Op(
            "replay", "hit", op.keys, None, op.function, op.assignments
        ))
    if workload.adapter == "library":
        # persist the summary, reload it from a store, answer from the copy
        ops.append(Op("persist", "persist", None, None, "max", names))
    for op in ops:
        op.body = _encode(op)
    preload = []
    for bucket in range(workload.preload_buckets):
        start = PRELOAD_KEY_BASE + bucket * workload.preload_keys
        preload.append((
            str(PRELOAD_FIRST_DAY + bucket),
            np.arange(start, start + workload.preload_keys, dtype=np.int64),
            draw_weights(workload.preload_keys),
        ))
    return Script(workload, seed, ops, preload)
