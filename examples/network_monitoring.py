"""Network monitoring: cross-period traffic change detection from sketches.

The paper's motivating deployment: a router summarizes each hour's flow
records independently (bottom-k sample of byte counts per destination IP);
hours never see each other's data and coordinate only through a shared
hash of the key.  A central monitor later assembles the sketches and asks
questions the sketches were not specifically built for:

* How much traffic moved between the two hours (L1 difference)?
* How much of that change is attributable to web ports vs everything else
  (subpopulation queries, specified *after* summarization)?
* Which destinations have the largest estimated change ("representative
  keys" — something non-sample sketches cannot provide)?

Run:  python examples/network_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AggregationSpec,
    KeyHasher,
    IppsRanks,
    QueryEngine,
    ShardedSummarizer,
    aggregate_stream,
    exact_aggregate,
)
from repro.core.summary import build_summary_from_sketches
from repro.datasets.ip_traffic import IPTraceConfig, generate_ip_trace
from repro.datasets.ip_traffic import ip_dispersed_dataset

K = 400
WEB_PORTS = {80, 443, 8080}


def main() -> None:
    config = IPTraceConfig(
        n_periods=2, flows_per_period=12_000, n_dest_ips=1200, n_src_ips=4000
    )
    trace = generate_ip_trace(config, seed=2009)
    family = IppsRanks()
    hasher = KeyHasher(salt=0xC0FFEE)  # shared across all periods

    # --- at each router / hour: one pass, no cross-period state ---------
    sketches = {}
    web_bytes: dict[str, dict[int, float]] = {}
    for period in (0, 1):
        name = f"hour{period + 1}"
        router = ShardedSummarizer(
            k=K, assignments=[name], family=family, hasher=hasher
        )
        router.ingest_stream(
            name,
            (
                (record.dst_ip, float(record.bytes))
                for record in trace
                if record.period == period
            ),
        )
        sketches[name] = router.sketches()[name]
        web_bytes[name] = aggregate_stream(
            (record.dst_ip, float(record.bytes))
            for record in trace
            if record.period == period and record.dst_port in WEB_PORTS
        )

    # --- at the monitor: assemble and query ------------------------------
    summary = build_summary_from_sketches(sketches, family)
    names = ("hour1", "hour2")
    spec_l1 = AggregationSpec("l1", names)
    l1_weights = QueryEngine(summary).adjusted(spec_l1, "l1-l")

    dataset = ip_dispersed_dataset(trace, "destip", "bytes")  # ground truth
    exact_l1 = exact_aggregate(
        dataset, AggregationSpec("l1", tuple(dataset.assignments))
    )
    print("== total cross-hour byte change (L1) ==")
    print(f"  estimated: {l1_weights.total():16,.0f}")
    print(f"  exact:     {exact_l1:16,.0f}")
    rel = abs(l1_weights.total() - exact_l1) / exact_l1
    print(f"  relative error: {rel:.1%}  (k = {K} of "
          f"{dataset.n_keys} destinations)")

    # subpopulation specified after the fact: destinations that are
    # web-heavy in hour 1 (predicate evaluated per sampled key).
    web_dests = {
        dest
        for dest, volume in web_bytes["hour1"].items()
        if volume > 0.0
    }
    mask = np.array([key in web_dests for key in summary.keys])
    selected = mask[l1_weights.positions]
    web_change = float(l1_weights.values[selected].sum())
    p1, p2 = dataset.assignments
    exact_web = float(
        sum(
            abs(dataset.weight(key, p1) - dataset.weight(key, p2))
            for key in dataset.keys
            if key in web_dests
        )
    )
    print("\n== change restricted to web-active destinations ==")
    print(f"  estimated: {web_change:16,.0f}")
    print(f"  exact:     {exact_web:16,.0f}")

    # representative keys: top estimated movers
    order = np.argsort(-l1_weights.values)[:5]
    print("\n== top estimated movers (destIP, adjusted L1 weight) ==")
    for row in order:
        key = summary.keys[l1_weights.positions[row]]
        print(f"  dest {key:>6}: {l1_weights.values[row]:14,.0f}")


if __name__ == "__main__":
    main()
