"""End-to-end scenarios exercising the public API the way a user would."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import (
    AggregationSpec,
    BottomKStreamSampler,
    KeyHasher,
    MultiAssignmentDataset,
    QueryEngine,
    exact_aggregate,
    summarize_dataset,
)
from repro.core.summary import build_summary_from_sketches
from repro.datasets.ip_traffic import (
    IPTraceConfig,
    generate_ip_trace,
    ip_dispersed_dataset,
)
from repro.ranks.families import IppsRanks


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_summarize_and_query_colocated(self):
        ds = MultiAssignmentDataset(
            ["a", "b", "c", "d"],
            ["bytes", "packets"],
            [[100.0, 10.0], [50.0, 5.0], [10.0, 1.0], [5.0, 2.0]],
        )
        summary = summarize_dataset(ds, k=3, seed=1)
        spec = AggregationSpec("single", ("bytes",))
        estimate = QueryEngine(summary).estimate(spec, "colocated")
        assert estimate == pytest.approx(exact_aggregate(ds, spec), rel=1.0)

    def test_summarize_validates_inputs(self):
        ds = MultiAssignmentDataset(["a"], ["x"], [[1.0]])
        with pytest.raises(ValueError):
            summarize_dataset(ds, k=1, mode="nope")
        with pytest.raises(ValueError):
            summarize_dataset(ds, k=1, family="nope")
        with pytest.raises(ValueError):
            summarize_dataset(ds, k=1, method="nope")

    def test_subpopulation_query_with_predicate(self):
        from repro.core.predicates import attribute_equals

        ds = MultiAssignmentDataset(
            ["a", "b", "c"],
            ["w"],
            [[10.0], [20.0], [30.0]],
            attributes={"kind": ["x", "y", "x"]},
        )
        mask = attribute_equals("kind", "x").mask(ds)
        summary = summarize_dataset(ds, k=3, seed=0)
        adjusted = QueryEngine(summary).adjusted(
            AggregationSpec("single", ("w",)), "colocated"
        )
        # k = n: every key sampled with p = 1, estimate is exact.
        assert adjusted.subpopulation(mask) == pytest.approx(40.0)


class TestDispersedDeployment:
    """The full dispersed story: independent stream samplers, shared hash,
    central assembly, multi-assignment estimation — no collation ever."""

    def test_two_routers_one_estimate(self):
        rng = np.random.default_rng(7)
        config = IPTraceConfig(n_periods=2, flows_per_period=3000,
                               n_dest_ips=300)
        trace = generate_ip_trace(config, seed=7)
        # Ground truth from the collated view (test-only!).
        dataset = ip_dispersed_dataset(trace, "destip", "bytes")
        names = tuple(dataset.assignments)
        exact_l1 = exact_aggregate(dataset, AggregationSpec("l1", names))

        # Each period is summarized by its own pass; only the hasher is shared.
        family = IppsRanks()
        hasher = KeyHasher(2009)
        sketches = {}
        for period, name in enumerate(names):
            sampler = BottomKStreamSampler(k=150, family=family, hasher=hasher)
            totals: dict[int, float] = {}
            for record in trace:
                if record.period == period:
                    totals[record.dst_ip] = (
                        totals.get(record.dst_ip, 0.0) + record.bytes
                    )
            sampler.process_stream(totals.items())
            sketches[name] = sampler.sketch()

        summary = build_summary_from_sketches(sketches, family)
        spec = AggregationSpec("l1", names)
        estimate = QueryEngine(summary).estimate(spec, "l1-l")
        assert estimate == pytest.approx(exact_l1, rel=0.35)

    def test_estimates_improve_with_k(self):
        rng_cfg = IPTraceConfig(n_periods=2, flows_per_period=2000,
                                n_dest_ips=200)
        trace = generate_ip_trace(rng_cfg, seed=8)
        dataset = ip_dispersed_dataset(trace, "destip", "bytes")
        names = tuple(dataset.assignments)
        spec = AggregationSpec("max", names)
        exact = exact_aggregate(dataset, spec)
        family = IppsRanks()

        def rel_error_at(k: int, salts: range) -> float:
            errors = []
            for salt in salts:
                hasher = KeyHasher(salt)
                sketches = {}
                for period, name in enumerate(names):
                    sampler = BottomKStreamSampler(k, family, hasher)
                    totals: dict[int, float] = {}
                    for r in trace:
                        if r.period == period:
                            totals[r.dst_ip] = totals.get(r.dst_ip, 0.0) + r.bytes
                    sampler.process_stream(totals.items())
                    sketches[name] = sampler.sketch()
                summary = build_summary_from_sketches(sketches, family)
                estimate = QueryEngine(summary).estimate(spec, "lset")
                errors.append(abs(estimate - exact) / exact)
            return float(np.mean(errors))

        coarse = rel_error_at(10, range(8))
        fine = rel_error_at(120, range(8))
        assert fine < coarse
