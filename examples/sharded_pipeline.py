"""Sharded streams: two collectors summarize raw events, merged exactly.

Simulates a two-hour network monitor: each hour is a weight assignment,
events are unaggregated (flow, bytes) records arriving in batches.  Two
collectors that never talk each see a key-disjoint share of the flows and
run their own `ShardedSummarizer`, coordinated through nothing but the
shared hasher salt.  Their sketch bundles merge **exactly** — the result
is bit-identical to one summarizer over the whole stream — and from the
merged dispersed summary we estimate per-hour totals, the max/min/L1
change between hours, and the weighted Jaccard similarity, against exact
values.

Run:  python examples/sharded_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AggregationSpec,
    QueryEngine,
    ShardedSummarizer,
    jaccard_from_summary,
)
from repro.ranks import KeyHasher

N_FLOWS = 5_000
EVENTS_PER_HOUR = 60_000
K = 600


def synth_hour(rng: np.random.Generator, churn: float):
    """Unaggregated (flow-id, bytes) events for one hour."""
    flows = rng.integers(0, N_FLOWS, EVENTS_PER_HOUR)
    alive = rng.random(N_FLOWS) >= churn
    sizes = rng.pareto(1.2, EVENTS_PER_HOUR) * 40.0 + 40.0
    sizes = np.where(alive[flows], sizes, 0.0)
    return flows.astype(np.int64), sizes


def main() -> None:
    rng = np.random.default_rng(7)
    hours = {"hour1": synth_hour(rng, 0.10), "hour2": synth_hour(rng, 0.25)}

    def collect(mine) -> ShardedSummarizer:
        """One collector over the flows ``mine`` selects."""
        engine = ShardedSummarizer(
            k=K, assignments=list(hours), hasher=KeyHasher(42)
        )
        for name, (flows, sizes) in hours.items():
            flows, sizes = flows[mine(flows)], sizes[mine(flows)]
            # Arrive in batches, as a collector would ship them.
            for lo in range(0, len(flows), 4096):
                engine.ingest(
                    name, flows[lo : lo + 4096], sizes[lo : lo + 4096]
                )
        return engine

    east = collect(lambda flows: flows % 2 == 0)
    west = collect(lambda flows: flows % 2 == 1)
    merged = east.sketch_bundle().merge(west.sketch_bundle())
    summary = merged.summary()
    whole = collect(lambda flows: np.ones(len(flows), dtype=bool))
    print(f"east: {east}\nwest: {west}")
    print(f"merged == one summarizer over every flow: "
          f"{summary.equals(whole.summary())}")
    print(f"summary: {summary} (storage: {summary.storage_size()} keys, "
          f"sharing index {summary.sharing_index():.3f})")

    # Exact totals for comparison.
    exact = {}
    for name, (flows, sizes) in hours.items():
        totals = np.zeros(N_FLOWS)
        np.add.at(totals, flows, sizes)
        exact[name] = totals
    exact_max = np.maximum(exact["hour1"], exact["hour2"]).sum()
    exact_min = np.minimum(exact["hour1"], exact["hour2"]).sum()

    print("\naggregate            estimate         exact      error")
    rows = [
        ("hour1 total", AggregationSpec("single", ("hour1",)), exact["hour1"].sum()),
        ("hour2 total", AggregationSpec("single", ("hour2",)), exact["hour2"].sum()),
        ("max(h1,h2)", AggregationSpec("max", ("hour1", "hour2")), exact_max),
        ("min(h1,h2)", AggregationSpec("min", ("hour1", "hour2")), exact_min),
        ("L1 change", AggregationSpec("l1", ("hour1", "hour2")),
         exact_max - exact_min),
    ]
    queries = QueryEngine(summary)
    for label, spec, true_value in rows:
        estimator = "l1-l" if spec.function == "l1" else "lset"
        estimate = queries.estimate(spec, estimator)
        error = abs(estimate - true_value) / true_value if true_value else 0.0
        print(f"{label:<14} {estimate:14.0f} {true_value:14.0f} {error:9.1%}")

    exact_jaccard = exact_min / exact_max
    estimated_jaccard = jaccard_from_summary(summary, ("hour1", "hour2"))
    print(f"{'Jaccard':<14} {estimated_jaccard:14.3f} {exact_jaccard:14.3f} "
          f"{abs(estimated_jaccard - exact_jaccard):9.3f}")


if __name__ == "__main__":
    main()
