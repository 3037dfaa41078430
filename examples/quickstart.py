"""Quickstart: summarize a multi-assignment dataset and answer queries.

Walks through the three core steps on the paper's own 6-key example
(Figure 2): build a dataset, draw a coordinated bottom-k summary, and
estimate single- and multiple-assignment aggregates — then repeats the
min/max/L1 estimates at a realistic scale to show convergence.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AggregationSpec,
    MultiAssignmentDataset,
    QueryEngine,
    exact_aggregate,
    summarize_dataset,
)
from repro.datasets import correlated_zipf_dataset


def tiny_example() -> None:
    """The Figure 2 dataset: 6 keys, 3 weight assignments."""
    dataset = MultiAssignmentDataset(
        keys=["i1", "i2", "i3", "i4", "i5", "i6"],
        assignments=["w1", "w2", "w3"],
        weights=[
            [15.0, 20.0, 10.0],
            [0.0, 10.0, 15.0],
            [10.0, 12.0, 15.0],
            [5.0, 20.0, 0.0],
            [10.0, 0.0, 15.0],
            [10.0, 10.0, 10.0],
        ],
    )
    print("== tiny example (paper Figure 2) ==")
    summary = summarize_dataset(dataset, k=3, mode="colocated", seed=7)
    print(f"summary: {summary}")
    engine = QueryEngine(summary)
    for spec in (
        AggregationSpec("single", ("w2",)),
        AggregationSpec("max", ("w1", "w2", "w3")),
        AggregationSpec("l1", ("w2", "w3")),
    ):
        estimate = engine.estimate(spec, "colocated")
        exact = exact_aggregate(dataset, spec)
        print(
            f"  {spec.function:>6} over {','.join(spec.assignments):<10} "
            f"estimate = {estimate:8.2f}   exact = {exact:8.2f}"
        )


def realistic_example() -> None:
    """2000 Zipf-skewed keys, 3 assignments, dispersed summaries."""
    dataset = correlated_zipf_dataset(
        n_keys=2000, n_assignments=3, churn=0.15, seed=42
    )
    names = tuple(dataset.assignments)
    print("\n== realistic example (2000 keys, dispersed model, k=200) ==")
    estimates: dict[str, list[float]] = {"min": [], "max": [], "l1": []}
    for seed in range(5):
        summary = summarize_dataset(dataset, k=200, mode="dispersed", seed=seed)
        engine = QueryEngine(summary)
        for function in estimates:
            # l-set min (Eq. (15)), s-set == l-set max, L1 = max − l-set min
            estimator = "l1-l" if function == "l1" else "lset"
            spec = AggregationSpec(function, names)
            estimates[function].append(engine.estimate(spec, estimator))
    for function, values in estimates.items():
        exact = exact_aggregate(dataset, AggregationSpec(function, names))
        mean = float(np.mean(values))
        spread = float(np.std(values))
        print(
            f"  {function:>4}: exact = {exact:12.1f}   "
            f"mean of 5 estimates = {mean:12.1f} (±{spread:.1f})"
        )


if __name__ == "__main__":
    tiny_example()
    realistic_example()
