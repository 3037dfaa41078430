"""Movie-ratings trends: colocated summaries with a posteriori queries.

Keys are movies, weight assignments are monthly rating counts (colocated:
the full monthly vector travels with each sampled movie).  One coordinated
summary answers, without re-touching the data:

* total ratings per month (single-assignment sums),
* stable interest floor over H1 (min-dominance norm),
* churn between adjacent months (L1),
* the same queries restricted to one genre — a predicate chosen after
  summarization,
* a storage comparison against independent per-month samples.

Run:  python examples/movie_trends.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AggregationSpec,
    QueryEngine,
    exact_aggregate,
    summarize_dataset,
)
from repro.core.predicates import attribute_equals
from repro.datasets.netflix import NetflixConfig, netflix_monthly_dataset

K = 300


def main() -> None:
    dataset = netflix_monthly_dataset(NetflixConfig(n_movies=3000), seed=5)
    months = dataset.assignments
    summary = summarize_dataset(dataset, k=K, mode="colocated", seed=77)
    engine = QueryEngine(summary)
    print(f"summary holds {summary.n_union} distinct movies "
          f"({summary.n_union / dataset.n_keys:.1%} of the catalogue), "
          f"k = {K} per month, {len(months)} months")
    print(f"sharing index = {summary.sharing_index():.3f} "
          f"(1/{len(months)} = {1 / len(months):.3f} would be perfect overlap)")

    print("\n== monthly rating totals (estimate vs exact) ==")
    for month in months[:6]:
        spec = AggregationSpec("single", (month,))
        estimate = engine.estimate(spec, "colocated")
        exact = exact_aggregate(dataset, spec)
        bar = "#" * int(estimate / 2000)
        print(f"  {month}: {estimate:10.0f} vs {exact:10.0f}  {bar}")

    h1 = tuple(months[:6])
    for label, spec in [
        ("stable interest floor over H1 (min)", AggregationSpec("min", h1)),
        ("peak interest over H1 (max)", AggregationSpec("max", h1)),
        ("jan→feb churn (L1)", AggregationSpec("l1", (months[0], months[1]))),
    ]:
        estimate = engine.estimate(spec, "colocated")
        exact = exact_aggregate(dataset, spec)
        print(f"\n== {label} ==\n  estimate = {estimate:12.0f}   "
              f"exact = {exact:12.0f}")

    # a-posteriori subpopulation: documentaries only
    predicate = attribute_equals("genre", "documentary")
    mask = predicate.mask(dataset)
    spec = AggregationSpec("l1", (months[0], months[1]))
    adjusted = engine.adjusted(spec, "colocated")
    estimate = adjusted.subpopulation(mask)
    spec_doc = AggregationSpec("l1", (months[0], months[1]),
                               predicate=predicate)
    exact = exact_aggregate(dataset, spec_doc)
    print("\n== jan→feb churn, documentaries only (predicate applied "
          "after summarization) ==")
    print(f"  estimate = {estimate:10.0f}   exact = {exact:10.0f}")

    # storage: coordinated vs independent summaries at the same k
    independent = summarize_dataset(
        dataset, k=K, mode="colocated", method="independent", seed=77
    )
    print("\n== storage at k = {0} per month ==".format(K))
    print(f"  coordinated summary: {summary.n_union:5d} distinct movies")
    print(f"  independent samples: {independent.n_union:5d} distinct movies")
    saving = 1 - summary.n_union / independent.n_union
    print(f"  coordination saves {saving:.1%} of the storage")


if __name__ == "__main__":
    main()
