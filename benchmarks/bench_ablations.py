"""A1–A4 — design-choice ablations (README, "Paper experiments").

* A1 — EXP vs IPPS rank families: the paper reports "results for EXP ranks
  were similar"; the ΣV ratio between families should stay within a small
  constant at every k.
* A2 — weighted vs unweighted coordination: replacing weights by 0/1
  (the prior global-weights methods) must lose by large factors on skewed
  data (§9.2).
* A3 — generic consistent estimator (Eq. (7)) vs the tailored shared-seed
  inclusive estimator (Eq. (6)): the generic one is weaker (Lemma 5.1).
* A4 — independent-differences vs shared-seed colocated inclusive
  estimators: both valid consistent-rank choices.  Measured finding:
  independent-differences yields *lower* inclusive-estimator variance at
  the same k because its unions hold more distinct keys — the flip side
  of Theorem 4.2 (shared-seed minimizes storage, not variance).
"""

import numpy as np
import pytest

from repro.core.aggregates import AggregationSpec, key_values
from repro.engine.queries import QueryEngine
from repro.evaluation.experiments import (
    dispersed_tasks,
    experiment_unweighted_baseline,
)
from repro.evaluation.runner import EstimatorTask, run_sigma_v
from repro.evaluation.reporting import render_series_table
from repro.evaluation.analytic import sv_colocated_inclusive

from workloads import K_VALUES, RUNS, ip1_dispersed, ip1_colocated


def test_a1_rank_family_equivalence(benchmark, emit):
    dataset = ip1_dispersed("destip", "bytes")
    tasks = dispersed_tasks(dataset, include_singles=False,
                            include_independent=False)

    def run():
        ipps = run_sigma_v(dataset, tasks, K_VALUES, RUNS, "ipps", seed=11)
        exp = run_sigma_v(dataset, tasks, K_VALUES, RUNS, "exp", seed=11)
        return ipps, exp

    ipps, exp = benchmark.pedantic(run, rounds=1, iterations=1)
    series = {}
    for task in tasks:
        series[f"exp/ipps [{task.name}]"] = [
            exp.sigma_v[task.name][k] / ipps.sigma_v[task.name][k]
            for k in ipps.k_values
        ]
    text = render_series_table(
        ipps.k_values, series, title="== A1: EXP vs IPPS rank families =="
    )
    emit(text, name="A1_rank_family")
    for values in series.values():
        assert all(0.3 < v < 3.0 for v in values)


def test_a2_unweighted_baseline(benchmark, emit):
    dataset = ip1_dispersed("destip", "bytes")

    def run():
        return experiment_unweighted_baseline(
            dataset, K_VALUES, runs=RUNS, seed=21
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(result.render(), name="A2_unweighted")
    for values in result.series.values():
        assert all(v > 3.0 for v in values), (
            "unweighted coordination must lose by large factors on skewed data"
        )


def test_a3_generic_vs_tailored(benchmark, emit):
    dataset = ip1_colocated("destip")
    names = tuple(dataset.assignments)
    spec = AggregationSpec("max", names)
    f_values = key_values(dataset, spec)

    tailored = EstimatorTask(
        name="tailored (Eq.6)",
        rank_method="shared_seed",
        mode="colocated",
        estimate=lambda s: QueryEngine.for_summary(s).adjusted(
            spec, "colocated"
        ),
        f_values=f_values,
        sigma_v=lambda ctx: sv_colocated_inclusive(ctx, f_values),
    )
    generic = EstimatorTask(
        name="generic (Eq.7)",
        rank_method="shared_seed",
        mode="colocated",
        estimate=lambda s: QueryEngine.for_summary(s).adjusted(
            spec, "generic"
        ),
        f_values=f_values,
    )

    def run():
        # the generic estimator has no closed analytic ΣV helper; compare
        # both empirically with matched seeds.
        return run_sigma_v(
            dataset, [tailored, generic], [10, 40], runs=60, seed=31,
            metric="empirical",
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    series = {
        "tailored (Eq.6)": result.series("tailored (Eq.6)"),
        "generic (Eq.7)": result.series("generic (Eq.7)"),
        "generic/tailored": result.ratio("generic (Eq.7)", "tailored (Eq.6)"),
    }
    emit(
        render_series_table(result.k_values, series,
                            title="== A3: generic vs tailored estimator =="),
        name="A3_generic_vs_tailored",
    )
    # the tailored estimator should not lose; allow empirical noise
    assert all(r > 0.8 for r in series["generic/tailored"])


def test_a4_indep_diff_vs_shared_seed(benchmark, emit):
    dataset = ip1_colocated("destip")
    spec = AggregationSpec("single", ("bytes",))
    f_values = dataset.column("bytes")

    def make_task(method):
        return EstimatorTask(
            name=method,
            rank_method=method,
            mode="colocated",
            estimate=lambda s: QueryEngine.for_summary(s).adjusted(
            spec, "colocated"
        ),
            f_values=f_values,
            sigma_v=lambda ctx: sv_colocated_inclusive(ctx, f_values),
        )

    tasks = [make_task("shared_seed"), make_task("independent_differences")]

    def run():
        return run_sigma_v(dataset, tasks, K_VALUES, RUNS, "exp", seed=41)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    ss_sizes = result.union_sizes["shared_seed"]
    id_sizes = result.union_sizes["independent_differences"]
    series = {
        "shared_seed": result.series("shared_seed"),
        "indep_diff": result.series("independent_differences"),
        "ratio id/ss": result.ratio("independent_differences", "shared_seed"),
        "size ss": [ss_sizes[k] for k in result.k_values],
        "size id": [id_sizes[k] for k in result.k_values],
    }
    emit(
        render_series_table(
            result.k_values, series,
            title="== A4: independent-differences vs shared-seed ==",
        ),
        name="A4_indep_diff",
    )
    # Independent-differences trades storage for variance: larger unions,
    # lower inclusive-estimator ΣV.  Shared-seed keeps the smaller summary.
    for i in range(len(result.k_values)):
        assert series["ratio id/ss"][i] <= 1.05
        assert series["size id"][i] >= series["size ss"][i] - 1e-9
