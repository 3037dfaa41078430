"""What every answer of a script must be, computed in this process.

The contract under test: an answer is bit-identical to an offline
``QueryEngine`` over the exact merge of (stored buckets + every event
ingested so far).  The reference walks the script with one summarizer
and rebuilds that engine whenever the data moved.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregates import AggregationSpec
from repro.core.predicates import key_in
from repro.engine.queries import QueryEngine
from repro.service.config import NamespaceConfig

from .gen import Script
from .spec import FUNCTIONS, NAMESPACE, Workload


def namespace_config(workload: Workload) -> NamespaceConfig:
    return NamespaceConfig(NAMESPACE, workload.assignments, k=workload.k)


def preload_bundles(script: Script) -> list:
    """``(bucket, SketchBundle)`` of every stored day-bucket."""
    config = namespace_config(script.workload)
    bundles = []
    for bucket, keys, weights in script.preload:
        summarizer = config.make_summarizer()
        summarizer.ingest_multi(keys, weights)
        bundles.append((bucket, summarizer.sketch_bundle()))
    return bundles


def expected_answers(script: Script, stored: list) -> list:
    """One expected estimate per op (``None`` for ingests)."""
    summarizer = namespace_config(script.workload).make_summarizer()
    stored = [bundle for _bucket, bundle in stored]
    engine = None
    answers = []
    for op in script.ops:
        if op.is_ingest:
            summarizer.ingest_multi(op.keys, op.weights)
            engine = None
            answers.append(None)
            continue
        if engine is None:
            engine = QueryEngine.from_bundles(
                stored + [summarizer.sketch_bundle()]
            )
        answers.append(engine.estimate(
            AggregationSpec(op.function, op.assignments),
            estimator="auto",
            predicate=None if op.keys is None else key_in(op.keys.tolist()),
        ))
    return answers


def _key_totals(keys: np.ndarray, weights: dict, names) -> np.ndarray:
    """Per-key aggregated weights, one column per assignment."""
    _unique, inverse = np.unique(keys, return_inverse=True)
    totals = np.zeros((inverse.max() + 1, len(names)))
    for column, name in enumerate(names):
        np.add.at(totals[:, column], inverse, weights[name])
    return totals


def _exact(totals: np.ndarray, function: str) -> float:
    high, low = totals.max(axis=1), totals.min(axis=1)
    return float({
        "max": high, "min": low, "l1": high - low, "single": totals[:, 0],
    }[function].sum())


def answer_rel_err(script: Script, answers: list) -> float:
    """Mean relative error of the full-population answers.

    Taken at the end of ``load`` and the end of ``live`` against exact
    values computed here from the raw events.
    """
    names = list(script.workload.assignments)
    errors = []
    for phase in ("load", "live"):
        last = max(
            i for i, op in enumerate(script.ops) if op.phase == phase
        )
        seen = [op for op in script.ops[:last + 1] if op.is_ingest]
        parts = [(op.keys, op.weights) for op in seen] + [
            (keys, weights) for _bucket, keys, weights in script.preload
        ]
        totals = _key_totals(
            np.concatenate([keys for keys, _ in parts]),
            {n: np.concatenate([w[n] for _, w in parts]) for n in names},
            names,
        )
        # the phase closes with one full-population answer per function
        for index in range(last - len(FUNCTIONS) + 1, last + 1):
            op = script.ops[index]
            columns = [names.index(name) for name in op.assignments]
            exact = _exact(totals[:, columns], op.function)
            errors.append(abs(answers[index] - exact) / exact)
    return float(np.mean(errors))
