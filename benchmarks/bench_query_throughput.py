"""QUERY — batch QueryEngine throughput vs one fresh engine per query.

Shape: a 50-query batch (min/max/L1/ℓ-th-largest/single specs × assignment
subsets × attribute predicates) over a summary of a 100k-key dataset runs
at least 5x faster through one :class:`repro.engine.queries.QueryEngine`
than looping the queries with a fresh engine each (one uncached kernel run
per query, wrapped as sparse adjusted weights) and dense predicate masks,
while returning numerically identical estimates.  The engine wins twice:
each kernel runs once per spec and its dense output is shared by every
predicate, and predicates are pushed down to the summary's union keys
instead of being materialized over all 100k dataset keys per query.

Run under pytest (`pytest benchmarks/bench_query_throughput.py`) or
standalone (`PYTHONPATH=src python benchmarks/bench_query_throughput.py`).
"""

from __future__ import annotations

import time

import numpy as np

from emit import write_bench_json
from repro.core.aggregates import AggregationSpec
from repro.core.dataset import MultiAssignmentDataset
from repro.core.predicates import (
    all_keys,
    attribute_equals,
    attribute_predicate,
)
from repro.core.summary import build_bottomk_summary
from repro.engine.queries import Query, QueryEngine
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import get_rank_family

N_KEYS = 100_000
K = 5_000
N_GROUPS = 8
SEED = 23

ASSIGNMENTS = ("h1", "h2", "h3", "h4")


def _make_dataset(n: int = N_KEYS, seed: int = SEED) -> MultiAssignmentDataset:
    rng = np.random.default_rng(seed)
    weights = rng.pareto(1.4, (n, len(ASSIGNMENTS))) * 10.0 + 0.05
    weights[rng.random(weights.shape) < 0.15] = 0.0
    dead = ~(weights > 0).any(axis=1)
    weights[dead, 0] = 1.0
    groups = (rng.integers(0, N_GROUPS, n)).tolist()
    return MultiAssignmentDataset(
        [f"key{i}" for i in range(n)],
        list(ASSIGNMENTS),
        weights,
        attributes={"group": groups},
    )


def _make_queries() -> list[Query]:
    """The 50-query batch: 10 (spec, estimator) pairs × 5 subpopulations.

    Mirrors real multi-query traffic: the same aggregates are requested for
    every subpopulation (all keys, two attribute groups, two ad-hoc
    predicates), so the engine answers 50 queries from 10 kernel runs and 4
    pushed-down predicate evaluations.
    """
    specs = [
        (AggregationSpec("min", ASSIGNMENTS), "lset"),
        (AggregationSpec("max", ASSIGNMENTS), "sset"),
        (AggregationSpec("l1", ASSIGNMENTS), "l1-l"),
        (AggregationSpec("min", ("h1", "h2")), "lset"),
        (AggregationSpec("max", ("h1", "h2")), "sset"),
        (AggregationSpec("lth_largest", ("h1", "h2", "h3"), ell=2), "lset"),
        (AggregationSpec("single", ("h1",)), "colocated"),
        (AggregationSpec("single", ("h2",)), "colocated"),
        (AggregationSpec("max", ("h2", "h3")), "colocated"),
        (AggregationSpec("single", ("h3",)), "plain_rc"),
    ]
    predicates = [
        all_keys(),
        attribute_equals("group", 0),
        attribute_equals("group", 3),
        attribute_predicate(
            lambda key, attrs: attrs["group"] % 3 == 1, "group%3==1"
        ),
        attribute_predicate(
            lambda key, attrs: attrs["group"] >= 5, "group>=5"
        ),
    ]
    queries = [
        Query(spec, predicate=predicate, estimator=estimator)
        for spec, estimator in specs
        for predicate in predicates
    ]
    assert len(queries) == 50, len(queries)
    return queries


def _reference_answer(summary, dataset, query: Query) -> float:
    """One query on its own: a fresh engine (no shared kernel output) and
    a dense mask over every dataset key."""
    adjusted = QueryEngine(summary).adjusted(query.spec, query.estimator)
    mask = query.effective_predicate.mask(dataset)
    return adjusted.subpopulation(mask)


def measure() -> dict:
    dataset = _make_dataset()
    family = get_rank_family("ipps")
    rng = np.random.default_rng(SEED)
    draw = get_rank_method("shared_seed").draw(family, dataset.weights, rng)
    summary = build_bottomk_summary(
        dataset.weights, draw, K, dataset.assignments, family, mode="colocated"
    )
    queries = _make_queries()

    start = time.perf_counter()
    reference = [_reference_answer(summary, dataset, q) for q in queries]
    reference_seconds = time.perf_counter() - start

    engine = QueryEngine(summary, dataset)
    start = time.perf_counter()
    results = engine.run(queries)
    engine_seconds = time.perf_counter() - start

    estimates = [r.estimate for r in results]
    identical = bool(
        np.allclose(reference, estimates, rtol=1e-12, atol=1e-9)
    )
    return {
        "n_keys": dataset.n_keys,
        "n_union": summary.n_union,
        "k": K,
        "n_queries": len(queries),
        "reference_seconds": reference_seconds,
        "engine_seconds": engine_seconds,
        "speedup": reference_seconds / engine_seconds,
        "identical": identical,
    }


def render(result: dict) -> str:
    lines = [
        f"QUERY throughput — {result['n_queries']} queries, "
        f"{result['n_keys']:,}-key dataset, k={result['k']} "
        f"({result['n_union']:,} union keys in the summary)",
        f"  reference loop : {result['reference_seconds']:8.3f} s  "
        f"({result['n_queries'] / result['reference_seconds']:8.1f} queries/s)",
        f"  QueryEngine    : {result['engine_seconds']:8.3f} s  "
        f"({result['n_queries'] / result['engine_seconds']:8.1f} queries/s)",
        f"  speedup (engine vs loop): {result['speedup']:.1f}x",
        f"  estimates identical: {result['identical']}",
    ]
    return "\n".join(lines)


def emit_json(result: dict) -> None:
    write_bench_json(
        "query_throughput",
        config={"n_keys": result["n_keys"], "k": result["k"],
                "n_queries": result["n_queries"], "seed": SEED},
        metrics={
            "reference_seconds": result["reference_seconds"],
            "engine_seconds": result["engine_seconds"],
            "reference_ops_per_sec": (
                result["n_queries"] / result["reference_seconds"]
            ),
            "engine_ops_per_sec": (
                result["n_queries"] / result["engine_seconds"]
            ),
            "speedup": result["speedup"],
            "identical": result["identical"],
        },
    )


def test_query_throughput(benchmark, emit):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(render(result), name="QUERY_throughput")
    emit_json(result)
    assert result["identical"], "engine estimates diverged from the reference"
    assert result["speedup"] >= 5.0, (
        f"QueryEngine only {result['speedup']:.1f}x faster than the "
        "reference loop (need >= 5x)"
    )


if __name__ == "__main__":
    result = measure()
    print(render(result))
    emit_json(result)
