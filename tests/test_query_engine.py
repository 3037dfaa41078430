"""Behavioral tests for the batch QueryEngine.

Parity of the kernels with an independent oracle is proven in
test_kernel_parity.py; this file checks the engine semantics: batch ==
per-query answers, the public per-spec estimators and the engine being
one implementation, kernel-run and predicate caching (read-only), predicate
pushdown (union keys only), auto estimator routing, stream-built
summaries, and the jaccard_from_summary edge cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tests.conftest import make_random_dataset
from repro.core.aggregates import AggregationSpec
from repro.core.dataset import MultiAssignmentDataset
from repro.core.predicates import (
    all_keys,
    attribute_equals,
    attribute_predicate,
    key_in,
)
from repro.core.summary import (
    build_bottomk_summary,
    build_poisson_summary,
    build_summary_from_sketches,
)
from repro.engine import queries as queries_module
from repro.engine.queries import Query, QueryEngine, jaccard_from_summary
from repro.estimators.colocated import (
    colocated_estimator,
    generic_consistent_estimator,
    inclusion_probabilities,
)
from repro.estimators.dispersed import (
    dispersed_estimator,
    independent_min_estimator,
    l1_estimator,
    lset_estimator,
    max_estimator,
    sset_estimator,
)
from repro.estimators.horvitz_thompson import ht_from_summary
from repro.estimators.rank_conditioning import plain_rc_from_summary
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import get_rank_family
from repro.ranks.hashing import KeyHasher
from repro.sampling.bottomk import BottomKStreamSampler
from repro.sampling.poisson import calibrate_tau


def make_summary(dataset, k=6, seed=3, method="shared_seed",
                 mode="colocated", family="ipps"):
    family_obj = get_rank_family(family)
    rng = np.random.default_rng(seed)
    draw = get_rank_method(method).draw(family_obj, dataset.weights, rng)
    return build_bottomk_summary(
        dataset.weights, draw, k, dataset.assignments, family_obj, mode=mode
    )


@pytest.fixture
def dataset():
    base = make_random_dataset(n_keys=40, n_assignments=3, seed=9)
    groups = [i % 4 for i in range(base.n_keys)]
    return MultiAssignmentDataset(
        base.keys, base.assignments, base.weights,
        attributes={"group": groups},
    )


class TestBatchAnswers:
    def test_batch_matches_reference_loop(self, dataset):
        summary = make_summary(dataset)
        names = tuple(dataset.assignments)
        specs = [
            (AggregationSpec("min", names), "lset", lset_estimator),
            (AggregationSpec("max", names), "sset", sset_estimator),
            (AggregationSpec("single", names[:1]), "colocated",
             colocated_estimator),
        ]
        predicates = [all_keys(), attribute_equals("group", 1),
                      attribute_equals("group", 2)]
        queries = [
            Query(spec, predicate=pred, estimator=estimator)
            for spec, estimator, _ in specs
            for pred in predicates
        ]
        engine = QueryEngine(summary, dataset)
        results = engine.run(queries)
        assert len(results) == len(queries)
        for result, query in zip(results, queries):
            reference_fn = next(
                fn for spec, _, fn in specs if spec is query.spec
            )
            adjusted = reference_fn(summary, query.spec)
            mask = query.effective_predicate.mask(dataset)
            assert result.estimate == pytest.approx(
                adjusted.subpopulation(mask), rel=1e-12, abs=1e-12
            )

    def test_bare_specs_are_auto_routed(self, dataset):
        summary = make_summary(dataset)
        spec = AggregationSpec("max", tuple(dataset.assignments))
        engine = QueryEngine(summary, dataset)
        (result,) = engine.run([spec])
        assert result.estimator == "colocated"
        assert result.n_selected == summary.n_union

    def test_estimate_with_predicate_override(self, dataset):
        summary = make_summary(dataset)
        engine = QueryEngine(summary, dataset)
        spec = AggregationSpec("min", tuple(dataset.assignments))
        pred = attribute_equals("group", 0)
        via_override = engine.estimate(spec, "lset", predicate=pred)
        reference = lset_estimator(summary, spec).subpopulation(
            pred.mask(dataset)
        )
        assert via_override == pytest.approx(reference, rel=1e-12)


class TestCaching:
    def test_kernel_runs_shared_across_predicates(self, dataset, monkeypatch):
        summary = make_summary(dataset)
        calls = {"n": 0}
        real = queries_module.lset_kernel

        def counting(s, spec):
            calls["n"] += 1
            return real(s, spec)

        monkeypatch.setattr(queries_module, "lset_kernel", counting)
        engine = QueryEngine(summary, dataset)
        spec = AggregationSpec("min", tuple(dataset.assignments))
        queries = [
            Query(spec, predicate=attribute_equals("group", g),
                  estimator="lset")
            for g in range(4)
        ] * 3
        engine.run(queries)
        assert calls["n"] == 1

    def test_l1_reuses_cached_max_and_min(self, dataset, monkeypatch):
        summary = make_summary(dataset)
        calls = []
        real_sset = queries_module.sset_kernel
        real_lset = queries_module.lset_kernel
        monkeypatch.setattr(
            queries_module, "sset_kernel",
            lambda s, spec: calls.append(("sset", spec.function))
            or real_sset(s, spec),
        )
        monkeypatch.setattr(
            queries_module, "lset_kernel",
            lambda s, spec: calls.append(("lset", spec.function))
            or real_lset(s, spec),
        )
        engine = QueryEngine(summary, dataset)
        names = tuple(dataset.assignments)
        engine.estimate(AggregationSpec("max", names), "sset")
        engine.estimate(AggregationSpec("min", names), "lset")
        engine.estimate(AggregationSpec("l1", names), "l1-l")
        # l1 recombines the two cached vectors: no additional kernel runs
        assert calls == [("sset", "max"), ("lset", "min")]

    def test_cached_arrays_are_read_only(self, dataset):
        """An in-place edit of a shared cached array must not corrupt answers."""
        summary = make_summary(dataset)
        spec = AggregationSpec("max", tuple(dataset.assignments))
        engine = QueryEngine(summary, dataset)
        before = engine.estimate(spec, "colocated")
        probabilities = inclusion_probabilities(summary)
        with pytest.raises(ValueError, match="read-only"):
            probabilities *= 2
        dense = engine.adjusted_dense(spec, "colocated")
        with pytest.raises(ValueError, match="read-only"):
            dense *= 2
        assert engine.estimate(spec, "colocated") == before
        assert QueryEngine(summary, dataset).estimate(spec, "colocated") == before
        # the sparse result is the caller's own copy
        adjusted = engine.adjusted(spec, "colocated")
        adjusted.values *= 2
        assert engine.estimate(spec, "colocated") == before

    def test_predicate_evaluated_once_on_union_keys_only(self, dataset):
        summary = make_summary(dataset)
        calls = {"n": 0}

        def fn(key, attrs):
            calls["n"] += 1
            return attrs["group"] == 0

        pred = attribute_predicate(fn, "counted")
        engine = QueryEngine(summary, dataset)
        names = tuple(dataset.assignments)
        engine.estimate(AggregationSpec("min", names), "lset", predicate=pred)
        engine.estimate(AggregationSpec("max", names), "sset", predicate=pred)
        # pushdown: evaluated on the union keys only, and only once
        assert calls["n"] == summary.n_union
        assert summary.n_union < dataset.n_keys

    def test_for_summary_memoizes_engine(self, dataset):
        summary = make_summary(dataset)
        engine_a = QueryEngine.for_summary(summary)
        engine_b = QueryEngine.for_summary(summary)
        assert engine_a is engine_b
        with_dataset = QueryEngine.for_summary(summary, dataset)
        assert with_dataset.dataset is dataset
        assert QueryEngine.for_summary(summary) is with_dataset

    def test_for_summary_rebinds_on_different_dataset(self, dataset):
        summary = make_summary(dataset)
        engine = QueryEngine.for_summary(summary, dataset)
        spec = AggregationSpec("min", tuple(dataset.assignments))
        engine.estimate(spec, "lset",
                        predicate=attribute_equals("group", 1))
        kernel_cache_before = dict(engine._dense)
        assert kernel_cache_before
        other = MultiAssignmentDataset(
            dataset.keys, dataset.assignments, dataset.weights,
            attributes={"group": [0] * dataset.n_keys},
        )
        rebound = QueryEngine.for_summary(summary, other)
        # same engine, dataset rebound: kernel cache (dataset-independent)
        # survives, dataset-derived predicate masks do not
        assert rebound is engine
        assert rebound.dataset is other
        assert rebound._dense == kernel_cache_before
        assert not rebound._predicate_masks

    def test_predicate_cache_is_bounded(self, dataset, monkeypatch):
        summary = make_summary(dataset)
        engine = QueryEngine(summary, dataset)
        monkeypatch.setattr(QueryEngine, "MAX_CACHED_PREDICATES", 4)
        spec = AggregationSpec("max", tuple(dataset.assignments))
        for g in range(10):  # ad-hoc per-request predicates
            engine.estimate(spec, "sset",
                            predicate=attribute_equals("group", g % 4))
        assert len(engine._predicate_masks) <= 4
        assert len(engine._predicate_refs) == len(engine._predicate_masks)


class TestRouting:
    def test_colocated_routes_inclusive(self, dataset):
        summary = make_summary(dataset, mode="colocated")
        engine = QueryEngine(summary)
        spec = AggregationSpec("min", tuple(dataset.assignments))
        assert engine.default_estimator(spec) == "colocated"

    def test_dispersed_shared_seed_routes_lset(self, dataset):
        summary = make_summary(dataset, mode="dispersed")
        engine = QueryEngine(summary)
        names = tuple(dataset.assignments)
        assert engine.default_estimator(AggregationSpec("min", names)) == "lset"
        assert engine.default_estimator(AggregationSpec("l1", names)) == "l1-l"

    def test_dispersed_without_seeds_routes_sset(self, dataset):
        summary = make_summary(
            dataset, mode="dispersed", method="independent_differences",
            family="exp",
        )
        engine = QueryEngine(summary)
        names = tuple(dataset.assignments)
        assert engine.default_estimator(AggregationSpec("min", names)) == "sset"
        assert engine.default_estimator(AggregationSpec("l1", names)) == "l1-s"

    def test_unknown_estimator_rejected(self, dataset):
        with pytest.raises(ValueError, match="unknown estimator"):
            Query(AggregationSpec("max", ("w1", "w2")), estimator="bogus")

    def test_single_only_estimators_reject_multi(self, dataset):
        summary = make_summary(dataset)
        engine = QueryEngine(summary, dataset)
        with pytest.raises(ValueError, match="single"):
            engine.estimate(
                AggregationSpec("max", tuple(dataset.assignments)), "plain_rc"
            )

    def test_l1_estimators_reject_non_l1_specs(self, dataset):
        summary = make_summary(dataset)
        engine = QueryEngine(summary, dataset)
        with pytest.raises(ValueError, match="'l1'"):
            engine.estimate(
                AggregationSpec("min", tuple(dataset.assignments)), "l1-s"
            )

    def test_l1_specs_reject_sset_lset_like_the_reference(self, dataset):
        summary = make_summary(dataset)
        engine = QueryEngine(summary, dataset)
        spec = AggregationSpec("l1", tuple(dataset.assignments))
        for estimator in ("sset", "lset"):
            with pytest.raises(ValueError, match="not top-ℓ dependent"):
                engine.estimate(spec, estimator)


#: each engine estimator's public per-spec name, as ``(summary, spec)``
PER_SPEC = {
    "sset": sset_estimator,
    "lset": lset_estimator,
    "l1-s": lambda s, spec: l1_estimator(s, spec.assignments, "s"),
    "l1-l": lambda s, spec: l1_estimator(s, spec.assignments, "l"),
    "colocated": colocated_estimator,
    "generic": generic_consistent_estimator,
    "plain_rc": lambda s, spec: plain_rc_from_summary(s, spec.assignments[0]),
    "ht": lambda s, spec: ht_from_summary(s, spec.assignments[0]),
    # wrappers: max / ind-min / the dispersed router
    "max": lambda s, spec: max_estimator(s, spec.assignments),
    "ind-min": lambda s, spec: independent_min_estimator(s, spec.assignments),
    "dispersed-s": lambda s, spec: dispersed_estimator(s, spec, "s"),
    "dispersed-l": lambda s, spec: dispersed_estimator(s, spec, "l"),
}


def engine_estimator(name: str, spec: AggregationSpec) -> str:
    """The engine estimator a per-spec name must reproduce exactly."""
    if name == "max":
        return "sset"
    if name == "ind-min":
        return "lset"
    if name.startswith("dispersed-"):
        variant = name[-1]
        if spec.function == "l1":
            return f"l1-{variant}"
        return "sset" if variant == "s" else "lset"
    return name


def specs_for(name: str, names: tuple[str, ...]) -> list[AggregationSpec]:
    if name in ("plain_rc", "ht"):
        return [AggregationSpec("single", (b,)) for b in names]
    if name in ("l1-s", "l1-l"):
        return [AggregationSpec("l1", names)]
    if name == "max":
        return [AggregationSpec("max", names)]
    if name == "ind-min":
        return [AggregationSpec("min", names)]
    specs = [
        AggregationSpec(function, names) for function in ("min", "max", "l1")
    ] + [AggregationSpec("single", names[:1])]
    specs += [
        AggregationSpec("lth_largest", names, ell=ell)
        for ell in range(1, len(names) + 1)
    ]
    return specs


one_impl_weights = st.integers(1, 3).flatmap(
    lambda m: arrays(
        np.float64,
        st.tuples(st.integers(1, 14), st.just(m)),
        elements=st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
    )
)


class TestOneImplementation:
    """Every public per-spec name is the engine's kernel, bit for bit."""

    @given(
        weights=one_impl_weights,
        k=st.integers(1, 6),
        seed=st.integers(0, 2**31),
        family=st.sampled_from(["ipps", "exp"]),
        method=st.sampled_from(
            ["shared_seed", "independent", "independent_differences"]
        ),
        mode=st.sampled_from(["colocated", "dispersed"]),
        kind=st.sampled_from(["bottomk", "poisson"]),
    )
    @settings(deadline=None)
    def test_public_names_equal_engine(
        self, weights, k, seed, family, method, mode, kind
    ):
        if method == "independent_differences":
            family = "exp"
        family_obj = get_rank_family(family)
        draw = get_rank_method(method).draw(
            family_obj, weights, np.random.default_rng(seed)
        )
        names = tuple(f"w{b}" for b in range(weights.shape[1]))
        if kind == "bottomk":
            summary = build_bottomk_summary(
                weights, draw, k, names, family_obj, mode=mode
            )
        else:
            taus = np.array([
                calibrate_tau(weights[:, b], family_obj, k)
                for b in range(weights.shape[1])
            ])
            summary = build_poisson_summary(
                weights, draw, taus, names, family_obj, mode=mode
            )
        engine = QueryEngine(summary)
        for name, public in PER_SPEC.items():
            if name == "ind-min" and summary.consistent:
                continue  # the wrapper's own guard; the engine has no such name
            for spec in specs_for(name, names):
                estimator = engine_estimator(name, spec)
                try:
                    expected = public(summary, spec)
                except ValueError:
                    with pytest.raises(ValueError):
                        engine.adjusted(spec, estimator)
                    continue
                got = engine.adjusted(spec, estimator)
                context = f"{name} {spec.function} ell={spec.ell}"
                assert np.array_equal(got.positions, expected.positions), context
                assert np.array_equal(
                    got.values, expected.values, equal_nan=True
                ), context


class TestStreamSummaries:
    def make_stream_summary(self):
        hasher = KeyHasher(5)
        rng = np.random.default_rng(2)
        family = get_rank_family("ipps")
        sketches = {}
        for name in ("a", "b"):
            sampler = BottomKStreamSampler(5, family, hasher)
            for key in range(30):
                sampler.process(f"key{key}", float(rng.pareto(1.3) + 0.1))
            sketches[name] = sampler.sketch()
        return build_summary_from_sketches(sketches, family)

    def test_superseded_engine_is_freed_without_the_cycle_collector(self):
        """The view caches point back at their summary weakly: a served
        engine (the largest per-query object) must die with its last
        reference, not wait for a generation-2 collection."""
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            summary = self.make_stream_summary()
            engine = QueryEngine(summary)
            engine.estimate(AggregationSpec("max", ("a", "b")))
            engine.estimate(AggregationSpec("l1", ("a", "b")))
            assert summary.views().subset((0, 1)).theta.shape[1] == 2
            alive = weakref.ref(summary)
            del engine, summary
            assert alive() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_summary_with_cached_views_pickles_its_fields_only(self):
        import pickle

        summary = self.make_stream_summary()
        spec = AggregationSpec("max", ("a", "b"))
        estimate = QueryEngine(summary).estimate(spec)
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.equals(summary) and "_views" not in clone.__dict__
        assert QueryEngine(clone).estimate(spec) == estimate

    def test_key_predicates_without_dataset(self):
        summary = self.make_stream_summary()
        engine = QueryEngine(summary)
        wanted = set(summary.keys[: max(1, summary.n_union // 2)])
        spec = AggregationSpec("max", ("a", "b"))
        with_pred = engine.estimate(spec, "sset", predicate=key_in(wanted))
        total = engine.estimate(spec, "sset")
        assert 0.0 <= with_pred <= total

    def test_attribute_predicate_needs_dataset(self, dataset):
        summary = make_summary(dataset)
        summary.keys = None
        engine = QueryEngine(summary)  # no dataset attached
        with pytest.raises(ValueError, match="dataset"):
            engine.estimate(
                AggregationSpec("max", tuple(dataset.assignments)), "sset",
                predicate=attribute_equals("group", 0),
            )

    def test_attribute_predicate_on_stream_summary_needs_dataset(self):
        """Empty attrs must not silently fail every key (estimate 0.0)."""
        summary = self.make_stream_summary()
        engine = QueryEngine(summary)
        spec = AggregationSpec("max", ("a", "b"))
        with pytest.raises(ValueError, match="key attributes"):
            engine.estimate(spec, "sset",
                            predicate=attribute_equals("group", 0))
        with pytest.raises(ValueError, match="key attributes"):
            engine.estimate(
                spec, "sset",
                predicate=attribute_predicate(
                    lambda key, attrs: attrs.get("group") == 0
                ),
            )

    def test_stream_summary_predicates_map_keys_to_dataset_rows(self):
        """positions of stream summaries are synthetic; attribute lookups
        must go through summary.keys, not summary.positions."""
        summary = self.make_stream_summary()
        n = 30
        # dataset rows deliberately ordered differently from summary rows,
        # with the predicate attribute tied to the key identifier
        keys = [f"key{i}" for i in reversed(range(n))]
        dataset = MultiAssignmentDataset(
            keys, ["a", "b"], np.ones((n, 2)),
            attributes={"parity": [int(key[3:]) % 2 for key in keys]},
        )
        engine = QueryEngine(summary, dataset)
        spec = AggregationSpec("max", ("a", "b"))
        even = engine.estimate(spec, "sset",
                               predicate=attribute_equals("parity", 0))
        odd = engine.estimate(spec, "sset",
                              predicate=attribute_equals("parity", 1))
        total = engine.estimate(spec, "sset")
        assert even + odd == pytest.approx(total, rel=1e-12)
        by_key = engine.estimate(
            spec, "sset",
            predicate=key_in({k for k in summary.keys if int(k[3:]) % 2 == 0}),
        )
        assert even == pytest.approx(by_key, rel=1e-12)

    def test_stream_summary_key_missing_from_dataset_rejected(self):
        summary = self.make_stream_summary()
        dataset = MultiAssignmentDataset(
            ["other"], ["a", "b"], np.ones((1, 2)),
            attributes={"group": [0]},
        )
        engine = QueryEngine(summary, dataset)
        with pytest.raises(ValueError, match="not in the attached dataset"):
            engine.estimate(
                AggregationSpec("max", ("a", "b")), "sset",
                predicate=attribute_equals("group", 0),
            )


class TestJaccardFromSummary:
    def make_pair_summary(self, weights, k=4, seed=0):
        names = ["a", "b"]
        family = get_rank_family("ipps")
        rng = np.random.default_rng(seed)
        draw = get_rank_method("shared_seed").draw(family, weights, rng)
        return build_bottomk_summary(weights, draw, k, names, family,
                                     mode="dispersed")

    def test_duplicate_assignment_names_rejected(self):
        weights = np.abs(np.random.default_rng(1).normal(5, 2, (10, 2)))
        summary = self.make_pair_summary(weights)
        with pytest.raises(ValueError, match="duplicate"):
            jaccard_from_summary(summary, ("a", "a"))

    def test_fewer_than_two_assignments_rejected(self):
        weights = np.abs(np.random.default_rng(1).normal(5, 2, (10, 2)))
        summary = self.make_pair_summary(weights)
        with pytest.raises(ValueError, match="two"):
            jaccard_from_summary(summary, ("a",))

    def test_empty_summary_returns_zero(self):
        summary = self.make_pair_summary(np.zeros((6, 2)))
        assert summary.n_union == 0
        assert jaccard_from_summary(summary, ("a", "b")) == 0.0

    def test_zero_weight_assignment_returns_zero_min(self):
        weights = np.zeros((8, 2))
        weights[:, 0] = np.arange(8, dtype=float) + 1.0
        summary = self.make_pair_summary(weights)
        # disjoint supports: min-norm is 0, so the ratio estimate is 0
        assert jaccard_from_summary(summary, ("a", "b")) == 0.0

    def test_identical_assignments_estimate_one(self):
        column = np.abs(np.random.default_rng(4).normal(5, 2, 12))
        weights = np.stack([column, column], axis=1)
        summary = self.make_pair_summary(weights, k=12)
        assert jaccard_from_summary(summary, ("a", "b")) == pytest.approx(1.0)

    def test_invalid_variant_rejected(self):
        weights = np.abs(np.random.default_rng(1).normal(5, 2, (10, 2)))
        summary = self.make_pair_summary(weights)
        with pytest.raises(ValueError, match="variant"):
            jaccard_from_summary(summary, ("a", "b"), variant="x")


class TestTableTotalsIntegration:
    def test_estimated_norm_columns(self, dataset):
        from repro.evaluation.experiments import table_totals

        summary = make_summary(dataset, k=20)
        names = tuple(dataset.assignments)
        result = table_totals(dataset, [names], summary=summary)
        title, headers, rows = result.tables[1]
        assert headers[-3:] == ["est Σ min", "est Σ max", "est Σ L1"]
        (row,) = rows
        exact_min, est_min = row[1], row[4]
        assert est_min == pytest.approx(exact_min, rel=0.5)


class TestServeManyEdgeCases:
    """serve_many failure and degenerate paths (store-backed batches)."""

    def fill_store(self, root):
        from repro.engine.sharded import ShardedSummarizer
        from repro.store import SummaryStore

        store = SummaryStore(root)
        for namespace, lo in [("web", 0), ("api", 1000)]:
            engine = ShardedSummarizer(
                k=8, assignments=["h1", "h2"],
                hasher=KeyHasher(3),
            )
            keys = np.arange(lo, lo + 50)
            weights = np.linspace(1.0, 5.0, 50)
            engine.ingest_multi(keys, {"h1": weights, "h2": weights * 2})
            store.write(namespace, "20260728T1201", engine.sketch_bundle())
        return store

    def test_unknown_namespace_raises_keyerror(self, tmp_path):
        store = self.fill_store(tmp_path / "store")
        spec = AggregationSpec("max", ("h1", "h2"))
        with pytest.raises(KeyError, match="no sketch bundles.*ghost"):
            QueryEngine.serve_many(store, {"ghost": [spec]})

    def test_empty_summary_namespace_estimates_zero(self, tmp_path):
        # A namespace whose only artifact holds empty sketches (a sampler
        # that saw no events) is servable: every estimate is exactly 0.
        from repro.store import SketchBundle, SummaryStore

        store = SummaryStore(tmp_path / "store")
        sketches = {
            name: BottomKStreamSampler(
                4, get_rank_family("ipps"), KeyHasher(3)
            ).sketch()
            for name in ("h1", "h2")
        }
        store.write(
            "hollow", "20260728T1201",
            SketchBundle("bottomk", sketches, get_rank_family("ipps"),
                         hasher_salt=3),
        )
        answers = QueryEngine.serve_many(
            store,
            {"hollow": [AggregationSpec("max", ("h1", "h2")),
                        AggregationSpec("single", ("h1",))]},
        )
        assert [result.estimate for result in answers["hollow"]] == [0.0, 0.0]
        assert [result.n_selected for result in answers["hollow"]] == [0, 0]

    def test_failure_mid_batch_propagates_and_a_retry_answers(self, tmp_path):
        # One namespace of the batch fails (unknown) between two good
        # ones: the error must propagate — not a partial dict — and the
        # next call over the same store must answer.
        store = self.fill_store(tmp_path / "store")
        spec = AggregationSpec("max", ("h1", "h2"))
        requests = {"web": [spec], "ghost": [spec], "api": [spec]}
        with pytest.raises(KeyError, match="ghost"):
            QueryEngine.serve_many(store, requests)
        retry = QueryEngine.serve_many(store, {"web": [spec], "api": [spec]})
        assert set(retry) == {"web", "api"}
        expected = {
            namespace: QueryEngine.from_store(store, namespace).estimate(spec)
            for namespace in ("web", "api")
        }
        assert {
            namespace: results[0].estimate
            for namespace, results in retry.items()
        } == expected

    def test_corrupt_artifact_mid_batch_propagates(self, tmp_path):
        # A failure in loading (decode error), not in request
        # validation: still an exception, never a silent skip.
        from repro.store import CodecError

        import sqlite3

        store = self.fill_store(tmp_path / "store")
        entry = store.entries("api")[0]
        key = (entry.namespace, entry.bucket, entry.part)
        blob = store.read_blob(*key)
        db = sqlite3.connect(tmp_path / "store" / "runtime.sqlite")
        with db:
            db.execute(
                "UPDATE artifacts SET data = ? WHERE namespace = ? "
                "AND bucket = ? AND part = ?",
                (b"garbage" + blob[7:], *key),
            )
        db.close()
        spec = AggregationSpec("max", ("h1", "h2"))
        with pytest.raises(CodecError):
            QueryEngine.serve_many(
                store, {"web": [spec], "api": [spec]}
            )
