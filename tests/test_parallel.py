"""Executor specs over stdlib pools: same bytes under every executor.

`repro.engine.parallel` parses ``mode[:workers]`` specs into stdlib
``concurrent.futures`` pools for the three coarse-grained pipelines —
``SummaryStore.compact``, ``QueryEngine.serve_many`` and ``run_sigma_v``.
An executor changes *where* a task runs, never *what* the pipeline
produces, whether it came from a spec (built and shut down by the
library) or from the caller (never shut down by the library).  Shard
finalization takes no executor at all.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregationSpec
from repro.datasets.synthetic import correlated_zipf_dataset
from repro.engine import Query, QueryEngine, ShardedSummarizer, get_executor
from repro.engine.parallel import executor_scope, parse_executor_spec
from repro.evaluation.analytic import sv_plain_rc, sv_sset
from repro.evaluation.runner import EstimatorTask, run_sigma_v
from repro.ranks import KeyHasher
from repro.store import SummaryStore

#: every way a pipeline can be handed an executor: nothing, spec strings,
#: and caller-owned stdlib pools
EXECUTORS = ["none", "serial", "thread:2", "process:2", "own-thread",
             "own-process"]


@pytest.fixture(scope="module")
def owned_pools():
    """Caller-owned pools, shared by the whole module: if the library shut
    one down, every later test that uses it would fail."""
    pools = {
        "own-thread": ThreadPoolExecutor(max_workers=2),
        "own-process": ProcessPoolExecutor(
            max_workers=2, mp_context=multiprocessing.get_context("spawn")
        ),
    }
    yield pools
    for pool in pools.values():
        pool.shutdown()


@pytest.fixture(params=EXECUTORS)
def executor(request, owned_pools):
    """The ``executor=`` argument under test (spec, instance or None)."""
    if request.param == "none":
        return None
    return owned_pools.get(request.param, request.param)


class TestSpecs:
    def test_spec_parsing(self):
        assert parse_executor_spec(None) == ("serial", None)
        assert parse_executor_spec("serial:1") == ("serial", 1)
        assert parse_executor_spec(" Thread:3 ") == ("thread", 3)
        assert parse_executor_spec("process") == ("process", None)
        with get_executor("thread:3") as thread:
            assert isinstance(thread, ThreadPoolExecutor)
            assert thread._max_workers == 3
        with get_executor("process:2") as process:
            assert isinstance(process, ProcessPoolExecutor)
            assert process._max_workers == 2
        for spec in (None, "serial"):
            inline = get_executor(spec)
            assert isinstance(inline, Executor)
            assert not isinstance(
                inline, (ThreadPoolExecutor, ProcessPoolExecutor)
            )

    def test_instances_pass_through(self, owned_pools):
        for pool in owned_pools.values():
            assert get_executor(pool) is pool

    @pytest.mark.parametrize(
        "bad",
        ["", "fleet", "process:two", "serial:2", "thread:1:2", "thread:0",
         "thread:-1", "process:2:16"],
    )
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(ValueError, match="invalid executor spec"):
            parse_executor_spec(bad)
        with pytest.raises(ValueError, match="invalid executor spec"):
            get_executor(bad)

    def test_scope_shuts_down_a_pool_it_created(self):
        with executor_scope("thread:2") as pool:
            assert list(pool.map(_square, [3])) == [9]
        with pytest.raises(RuntimeError, match="after shutdown"):
            pool.submit(_square, 1)

    def test_scope_leaves_a_caller_owned_pool_usable(self, owned_pools):
        for owned in owned_pools.values():
            with executor_scope(owned) as pool:
                assert pool is owned
                assert list(pool.map(_square, [1])) == [1]
            assert list(owned.map(_square, [2])) == [4]

    def test_summarizer_takes_no_executor(self):
        with pytest.raises(TypeError, match="executor"):
            ShardedSummarizer(k=4, assignments=["h"], executor="thread:2")
        with pytest.raises(TypeError, match="executor"):
            ShardedSummarizer.from_checkpoint(None, executor="thread:2")


class TestMap:
    def test_map_preserves_order(self, executor):
        with executor_scope(executor) as ex:
            assert list(ex.map(_square, range(20))) == [
                i * i for i in range(20)
            ]

    def test_map_propagates_task_errors(self, executor):
        with executor_scope(executor) as ex:
            with pytest.raises(ValueError, match="boom 3"):
                list(ex.map(_explode_on_three, range(8)))
            # the executor survives a raising task
            assert list(ex.map(_square, [5])) == [25]

    def test_inline_executor_stops_at_the_failing_task(self):
        ran = []

        def task(x):
            ran.append(x)
            return _explode_on_three(x)

        with pytest.raises(ValueError, match="boom 3"):
            list(get_executor(None).map(task, range(8)))
        assert ran == [0, 1, 2, 3]  # a plain loop: nothing after the failure


def _fill_store(root, rng) -> SummaryStore:
    store = SummaryStore(root)
    for namespace, base in (("web", 0), ("api", 10**7)):
        for bucket in range(6):  # three minutes in each of two hours
            engine = ShardedSummarizer(
                k=64, assignments=["h1", "h2"],
                hasher=KeyHasher(7),
            )
            keys = np.arange(base + bucket * 2000, base + (bucket + 1) * 2000)
            for name in ("h1", "h2"):
                engine.ingest(name, keys, rng.pareto(1.3, len(keys)) + 0.05)
            store.write(
                namespace, f"20260728T{12 + bucket // 3}{bucket % 3:02d}",
                engine.sketch_bundle(),
            )
    return store


@pytest.fixture(scope="module")
def serial_compacted(tmp_path_factory):
    """A store compacted with no executor: the bytes every mode must match."""
    root = tmp_path_factory.mktemp("serial")
    store = _fill_store(root, np.random.default_rng(11))
    for namespace in ("web", "api"):
        assert len(store.compact(namespace, to="hour")) == 2
    return root, store


class TestStorePipelines:
    def test_compact_is_byte_identical(
        self, tmp_path, executor, serial_compacted
    ):
        _serial_root, serial_store = serial_compacted
        store = _fill_store(tmp_path, np.random.default_rng(11))
        for namespace in ("web", "api"):
            store.compact(namespace, to="hour", executor=executor)
        entries = [e.to_json() for e in serial_store.entries()]
        assert [e.to_json() for e in store.entries()] == entries
        assert store.version() == serial_store.version()
        assert store.runtime.manifest_snapshot() == (
            serial_store.runtime.manifest_snapshot()
        )
        for entry in serial_store.entries():
            key = (entry.namespace, entry.bucket, entry.part)
            assert store.read_blob(*key) == serial_store.read_blob(*key)

    def test_compact_refuses_a_bad_spec_even_with_nothing_to_do(
        self, tmp_path
    ):
        store = SummaryStore(tmp_path)
        with pytest.raises(ValueError, match="invalid executor spec"):
            store.compact("web", to="hour", executor="process:2:16")

    def test_serve_many_matches_sequential_engines(
        self, executor, serial_compacted
    ):
        _, store = serial_compacted
        requests = {
            "web": [
                Query(AggregationSpec("max", ("h1", "h2"))),
                AggregationSpec("min", ("h1", "h2")),
            ],
            "api": [AggregationSpec("single", ("h1",))],
        }
        expected = {
            namespace: QueryEngine.from_store(store, namespace).run(queries)
            for namespace, queries in requests.items()
        }
        answers = QueryEngine.serve_many(store, requests, executor=executor)
        assert list(answers) == list(requests)
        for namespace, results in answers.items():
            assert [
                (r.estimate, r.n_selected, r.estimator) for r in results
            ] == [
                (r.estimate, r.n_selected, r.estimator)
                for r in expected[namespace]
            ]

    def test_serve_many_accepts_root_path_and_buckets(self, tmp_path):
        store = _fill_store(tmp_path / "store", np.random.default_rng(17))
        spec = AggregationSpec("max", ("h1", "h2"))
        restricted = QueryEngine.serve_many(
            str(tmp_path / "store"),
            {"web": [spec]},
            buckets={"web": ["20260728T1200"]},
        )
        direct = QueryEngine.from_store(
            store, "web", buckets=["20260728T1200"]
        ).estimate(spec)
        assert restricted["web"][0].estimate == direct


DATASET = correlated_zipf_dataset(200, 3, seed=5, churn=0.2)


def _adjusted(summary, spec, estimator):
    return QueryEngine.for_summary(summary).adjusted(spec, estimator)


def _picklable_tasks() -> list[EstimatorTask]:
    """Tasks a process pool can take: partials of module-level functions
    (the stock experiment tasks are closures)."""
    names = tuple(DATASET.assignments)
    f_max = DATASET.weights.max(axis=1)
    return [
        EstimatorTask(
            name="single",
            rank_method="shared_seed",
            mode="dispersed",
            estimate=partial(
                _adjusted, spec=AggregationSpec("single", names[:1]),
                estimator="plain_rc",
            ),
            f_values=DATASET.column(names[0]),
            sigma_v=partial(sv_plain_rc, col=0),
        ),
        EstimatorTask(
            name="coord max",
            rank_method="shared_seed",
            mode="dispersed",
            estimate=partial(
                _adjusted, spec=AggregationSpec("max", names),
                estimator="sset",
            ),
            f_values=f_max,
            sigma_v=partial(sv_sset, cols=[0, 1, 2], ell=1, f_values=f_max),
        ),
    ]


class TestEvaluationPipeline:
    @pytest.mark.parametrize("metric", ["analytic", "empirical"])
    def test_run_sigma_v_is_bit_identical(self, executor, metric):
        tasks = _picklable_tasks()
        serial = run_sigma_v(
            DATASET, tasks, [5, 20], runs=4, seed=3, metric=metric
        )
        got = run_sigma_v(
            DATASET, tasks, [5, 20], runs=4, seed=3, metric=metric,
            executor=executor,
        )
        assert got.sigma_v == serial.sigma_v
        assert got.n_sigma_v == serial.n_sigma_v
        assert got.union_sizes == serial.union_sizes


class TestScalarBatchUnification:
    """process() is a single-element view of process_batch (cannot drift)."""

    def test_scalar_path_still_validates(self):
        from repro.ranks import IppsRanks
        from repro.sampling import BottomKStreamSampler

        sampler = BottomKStreamSampler(2, IppsRanks(), KeyHasher(1))
        sampler.process("a", 1.0)
        with pytest.raises(ValueError, match="seen twice"):
            sampler.process("a", 2.0)
        with pytest.raises(ValueError, match="non-finite weight"):
            sampler.process("b", float("inf"))
        with pytest.raises(ValueError, match="NaN key"):
            sampler.process(float("nan"), 1.0)
        sampler.process("zero", 0.0)  # zero weight: recorded, never sampled
        assert "zero" not in sampler.sketch()

    @given(
        n=st.integers(1, 60),
        salt=st.integers(0, 2**16),
        family_name=st.sampled_from(("ipps", "exp")),
    )
    @settings(max_examples=20, deadline=None)
    def test_scalar_equals_batch(self, n, salt, family_name):
        from repro.ranks import get_rank_family
        from repro.sampling import BottomKStreamSampler

        family = get_rank_family(family_name)
        rng = np.random.default_rng([n, salt])
        keys = rng.permutation(n * 3)[:n]
        weights = rng.pareto(1.3, n) + 0.01
        one_by_one = BottomKStreamSampler(4, family, KeyHasher(salt))
        for key, weight in zip(keys.tolist(), weights.tolist()):
            one_by_one.process(key, weight)
        batched = BottomKStreamSampler(4, family, KeyHasher(salt))
        batched.process_batch(keys, weights)
        assert one_by_one.sketch().equals(batched.sketch())


def _square(x: int) -> int:
    return x * x


def _explode_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("boom 3")
    return x
