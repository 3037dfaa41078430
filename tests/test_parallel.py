"""The offline pipelines are plain loops: same bytes on every call.

``SummaryStore.compact``, ``QueryEngine.serve_many`` and ``run_sigma_v``
run each unit of work (one coarse bucket, one namespace's batch, one
evaluation run) in the calling thread, in order.  None of them, nor a
summarizer or a CLI, takes an executor, and no offline module loads a
process pool.  Compaction publishes each group's exact merge, the same
bytes and manifest on every store; ``serve_many`` answers like one
engine per namespace; a fixed-seed ΣV sweep is the run-index-order mean
of its runs, the same bits every time, and so is every experiment's
printed output.
"""

from __future__ import annotations

import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregationSpec
from repro.datasets.synthetic import correlated_zipf_dataset
from repro.engine import Query, QueryEngine, ShardedSummarizer
from repro.evaluation.analytic import sv_plain_rc, sv_sset
from repro.evaluation.cli import _EXPERIMENTS as EXPERIMENTS
from repro.evaluation.cli import main as evaluation_main
from repro.evaluation.runner import EstimatorTask, _sigma_v_one_run, run_sigma_v
from repro.ranks import KeyHasher, get_rank_family
from repro.store import SummaryStore
from repro.store.store import coarsen_bucket

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize(
    "call",
    [
        partial(ShardedSummarizer, k=4, assignments=["h"]),
        partial(ShardedSummarizer.from_checkpoint, None),
        partial(SummaryStore.compact, None, "web"),
        partial(QueryEngine.serve_many, None, {}),
        partial(run_sigma_v, None, [], [4]),
    ],
    ids=["summarizer", "from_checkpoint", "compact", "serve_many",
         "run_sigma_v"],
)
def test_summarizer_takes_no_executor(call):
    with pytest.raises(TypeError, match="executor"):
        call(executor="thread:2")


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "repro.store", "compact", "--root", "{root}",
         "--namespace", "web", "--executor", "thread:2"],
        ["-m", "repro.store", "query", "--root", "{root}",
         "--namespace", "web", "--function", "max",
         "--assignments", "h1", "--executor", "thread:2"],
        ["-m", "repro.evaluation", "F3", "--executor", "thread:2"],
    ],
    ids=["store-compact", "store-query", "eval"],
)
def test_cli_has_no_executor_flag(argv, tmp_path):
    argv = [arg.format(root=tmp_path / "store") for arg in argv]
    done = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 2
    assert "unrecognized arguments: --executor thread:2" in done.stderr
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize(
    "module",
    ["repro", "repro.engine", "repro.store", "repro.store.cli",
     "repro.evaluation", "repro.evaluation.cli"],
)
def test_offline_modules_load_no_process_pool(module):
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}; print(sorted(m for m in sys.modules "
         "if m == 'multiprocessing' or m == 'concurrent.futures.process'))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
    """A compacted store: the bytes a twin compaction must match."""
    root = tmp_path_factory.mktemp("serial")
    store = _fill_store(root, np.random.default_rng(11))
    for namespace in ("web", "api"):
        assert len(store.compact(namespace, to="hour")) == 2
    return root, store


class TestStorePipelines:
    def test_compact_is_byte_identical(self, tmp_path, serial_compacted):
        _serial_root, serial_store = serial_compacted
        store = _fill_store(tmp_path, np.random.default_rng(11))
        for namespace in ("web", "api"):
            store.compact(namespace, to="hour")
        entries = [e.to_json() for e in serial_store.entries()]
        assert [e.to_json() for e in store.entries()] == entries
        assert store.version() == serial_store.version()
        assert store.runtime.manifest_snapshot() == (
            serial_store.runtime.manifest_snapshot()
        )
        for entry in serial_store.entries():
            key = (entry.namespace, entry.bucket, entry.part)
            assert store.read_blob(*key) == serial_store.read_blob(*key)

    @pytest.mark.parametrize(
        "to, exclude, rolled",
        [
            ("hour", None, ["20260728T12", "20260728T13"]),
            ("hour", ["20260728T12"], ["20260728T13"]),
            ("day", None, ["20260728"]),
            ("day", ["20260728"], []),
            ("minute", None, []),
        ],
        ids=["hour", "hour-excluding", "day", "day-excluding", "minute"],
    )
    def test_compact_rolls_each_group_up_exactly(
        self, tmp_path, to, exclude, rolled
    ):
        store = _fill_store(tmp_path, np.random.default_rng(11))
        merged = {ns: store.merged_bundle(ns) for ns in ("web", "api")}
        parts = {coarse: [] for coarse in rolled}
        kept = {}
        for entry in store.entries("web"):
            coarse = coarsen_bucket(entry.bucket, to)
            if coarse in parts:
                parts[coarse].append(store.load(entry))
            else:
                kept[entry.bucket, entry.part] = store.read_blob(
                    "web", entry.bucket, entry.part
                )
        version = store.version()
        written = store.compact("web", to=to, exclude_buckets=exclude)
        assert [entry.bucket for entry in written] == rolled
        assert all(entry.part == "rollup-0000" for entry in written)
        for entry in written:
            group = parts[entry.bucket]
            assert store.load(entry).equals(group[0].merge(*group[1:]))
        assert {
            (entry.bucket, entry.part): store.read_blob(
                "web", entry.bucket, entry.part
            )
            for entry in store.entries("web")
            if entry.bucket not in parts
        } == kept
        assert (store.version() == version) == (not rolled)
        for namespace, bundle in merged.items():
            assert store.merged_bundle(namespace).equals(bundle)

    @pytest.mark.parametrize("to", ["hour", "day"])
    def test_compact_twice_writes_nothing_more(self, tmp_path, to):
        store = _fill_store(tmp_path, np.random.default_rng(13))
        assert store.compact("web", to=to)
        entries = [entry.to_json() for entry in store.entries()]
        version = store.version()
        assert store.compact("web", to=to) == []
        assert [entry.to_json() for entry in store.entries()] == entries
        assert store.version() == version

    @pytest.mark.parametrize("to", ["week", "", "Hour", "minutes"])
    def test_compact_refuses_an_unknown_level_even_with_nothing_to_do(
        self, tmp_path, to
    ):
        store = SummaryStore(tmp_path)
        version = store.version()
        with pytest.raises(ValueError, match="unknown granularity"):
            store.compact("ghost", to=to)
        assert store.entries() == []
        assert store.version() == version

    def test_serve_many_matches_sequential_engines(self, serial_compacted):
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
        answers = QueryEngine.serve_many(store, requests)
        assert list(answers) == list(requests)
        for namespace, results in answers.items():
            assert [
                (r.estimate, r.n_selected, r.estimator) for r in results
            ] == [
                (r.estimate, r.n_selected, r.estimator)
                for r in expected[namespace]
            ]

    @pytest.mark.parametrize(
        "spec",
        [
            AggregationSpec("single", ("h2",)),
            AggregationSpec("min", ("h1", "h2")),
            AggregationSpec("max", ("h1", "h2")),
            AggregationSpec("l1", ("h1", "h2")),
            AggregationSpec("lth_largest", ("h1", "h2"), ell=2),
        ],
        ids=lambda spec: spec.function,
    )
    def test_serve_many_answers_every_function_like_one_engine(
        self, serial_compacted, spec
    ):
        _, store = serial_compacted
        answers = QueryEngine.serve_many(store, {"api": [spec], "web": [spec]})
        assert list(answers) == ["api", "web"]
        for namespace, results in answers.items():
            assert [result.estimate for result in results] == [
                QueryEngine.from_store(store, namespace).estimate(spec)
            ]

    @pytest.mark.parametrize("position", [0, 1, 2],
                             ids=["first", "middle", "last"])
    def test_serve_many_propagates_an_unknown_namespace(
        self, serial_compacted, position
    ):
        _, store = serial_compacted
        spec = AggregationSpec("max", ("h1", "h2"))
        namespaces = ["web", "api"]
        namespaces.insert(position, "ghost")
        with pytest.raises(KeyError, match="ghost"):
            QueryEngine.serve_many(store, {ns: [spec] for ns in namespaces})

    @pytest.mark.parametrize(
        "buckets",
        [
            {"web": ["20260728T1200", "20260728T1201", "20260728T1202"]},
            {"api": ["20260728T1301"]},
            {"web": ["20260728T1300"],
             "api": ["20260728T1200", "20260728T1302"]},
            {},
        ],
        ids=["web-one-hour", "api-one-minute", "both", "none"],
    )
    def test_serve_many_restricts_only_the_namespaces_named(
        self, tmp_path, buckets
    ):
        store = _fill_store(tmp_path, np.random.default_rng(23))
        spec = AggregationSpec("max", ("h1", "h2"))
        answers = QueryEngine.serve_many(
            store, {"web": [spec], "api": [spec]}, buckets=buckets
        )
        for namespace, results in answers.items():
            restricted = QueryEngine.from_store(
                store, namespace, buckets.get(namespace)
            ).estimate(spec)
            whole = QueryEngine.from_store(store, namespace).estimate(spec)
            assert results[0].estimate == restricted
            assert (restricted == whole) == (namespace not in buckets)

    def test_serve_many_of_no_requests_answers_nothing(self, serial_compacted):
        root, _store = serial_compacted
        assert QueryEngine.serve_many(root, {}) == {}

    def test_serve_many_never_creates_a_root(self, tmp_path):
        spec = AggregationSpec("max", ("h1", "h2"))
        with pytest.raises(FileNotFoundError, match="no store"):
            QueryEngine.serve_many(tmp_path / "absent", {"web": [spec]})
        assert not (tmp_path / "absent").exists()

    def test_serve_many_reads_the_root_as_it_stands(self, tmp_path):
        # A handle opened before a write still answers from the root as
        # it stands at the call: serve_many opens the root itself.
        store = _fill_store(tmp_path, np.random.default_rng(19))
        stale = SummaryStore(tmp_path, create=False)
        spec = AggregationSpec("l1", ("h1", "h2"))
        before = QueryEngine.serve_many(stale, {"web": [spec]})
        engine = ShardedSummarizer(
            k=64, assignments=["h1", "h2"], hasher=KeyHasher(7)
        )
        keys = np.arange(5 * 10**7, 5 * 10**7 + 500)
        engine.ingest_multi(
            keys, {"h1": np.ones(len(keys)), "h2": np.ones(len(keys))}
        )
        store.write("web", "20260728T1400", engine.sketch_bundle())
        after = QueryEngine.serve_many(stale, {"web": [spec]})
        assert after["web"][0].estimate == (
            QueryEngine.from_store(store, "web").estimate(spec)
        )
        assert after["web"][0].estimate != before["web"][0].estimate

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


def _tasks() -> list[EstimatorTask]:
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
    def test_run_sigma_v_is_bit_identical(self, metric):
        tasks = _tasks()
        first, again = (
            run_sigma_v(DATASET, tasks, [5, 20], runs=4, seed=3, metric=metric)
            for _ in range(2)
        )
        assert again.sigma_v == first.sigma_v
        assert again.n_sigma_v == first.n_sigma_v
        assert again.union_sizes == first.union_sizes


    @pytest.mark.parametrize("metric", ["analytic", "empirical"])
    def test_run_sigma_v_is_the_run_index_order_mean(self, metric):
        tasks = _tasks()
        k_values, runs, seed = [5, 20], 3, 3
        result = run_sigma_v(
            DATASET, tasks, k_values, runs=runs, seed=seed, metric=metric
        )
        family = get_rank_family("ipps")
        methods = sorted({task.rank_method for task in tasks})
        totals = {task.name: {k: 0.0 for k in k_values} for task in tasks}
        for run in range(runs):
            run_totals, _sizes = _sigma_v_one_run(
                DATASET, tasks, k_values, methods, family, seed, run, metric
            )
            for name, by_k in run_totals.items():
                for k, value in by_k.items():
                    totals[name][k] += value
        assert result.sigma_v == {
            name: {k: total / runs for k, total in by_k.items()}
            for name, by_k in totals.items()
        }
        assert result.runs == runs and result.k_values == k_values

    def test_run_sigma_v_draws_from_its_seed(self):
        tasks = _tasks()
        first, other = (
            run_sigma_v(DATASET, tasks, [5], runs=2, seed=seed,
                        metric="empirical")
            for seed in (3, 4)
        )
        assert first.sigma_v != other.sigma_v

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_experiment_output_is_repeatable(self, experiment, capsys):
        argv = [experiment, "--scale", "0.1", "--runs", "3",
                "--k", "5", "20", "--seed", "7"]
        outputs = []
        for _ in range(2):
            assert evaluation_main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].strip()


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

