"""Deterministic experiment runner for variance sweeps.

Drives repeated rank draws over a dataset and evaluates a set of
*estimator tasks* at every sample size k, accumulating ΣV and combined-
sample sizes.  Randomness is fully determined by ``(seed, run)`` via
``numpy.random.default_rng([seed, run])``, so every figure the README's
"Paper experiments" section lists is exactly reproducible.

Two ΣV metrics are supported:

* ``metric="analytic"`` (default) — per run, compute the closed-form
  conditional variance ``Σ_i f(i)²(1/p(i, r^{-i}) − 1)`` over *all* keys
  (see :mod:`repro.evaluation.analytic`).  Converges orders of magnitude
  faster and is the only metric that can expose the astronomically small
  inclusion probabilities of independent sketches (Figure 3).
* ``metric="empirical"`` — per run, realize the estimator and accumulate
  actual squared errors.  Slower to converge but metric-assumption-free;
  the test suite uses it to validate the analytic path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.dataset import MultiAssignmentDataset
from repro.core.summary import MultiAssignmentSummary, build_bottomk_summary
from repro.estimators.base import AdjustedWeights
from repro.evaluation.analytic import DrawContext, make_context
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import RankFamily, get_rank_family

__all__ = [
    "EstimatorTask",
    "VarianceResult",
    "run_sigma_v",
    "run_sharing_index",
]


@dataclass
class EstimatorTask:
    """One estimator to evaluate in a sweep.

    Attributes
    ----------
    name:
        series label (e.g. ``"coord min-l"``).
    rank_method:
        rank-assignment method the estimator needs
        (``"shared_seed"`` / ``"independent"`` / ``"independent_differences"``).
    mode:
        summary information model for the empirical path
        (``"colocated"`` or ``"dispersed"``).
    estimate:
        callable mapping a summary to adjusted weights (empirical metric).
    f_values:
        dense ground-truth per-key values of the estimated aggregate.
    sigma_v:
        callable mapping a :class:`DrawContext` to this run's conditional
        ΣV (analytic metric); optional but required for ``metric="analytic"``.
    """

    name: str
    rank_method: str
    mode: str
    estimate: Callable[[MultiAssignmentSummary], AdjustedWeights]
    f_values: np.ndarray
    sigma_v: Callable[[DrawContext], float] | None = None

    def __post_init__(self) -> None:
        self.f_values = np.asarray(self.f_values, dtype=float)
        self._f_sum = float(self.f_values.sum())

    @property
    def aggregate_value(self) -> float:
        """Exact full-population aggregate ``Σ_i f(i)``."""
        return self._f_sum


@dataclass
class VarianceResult:
    """Accumulated results of :func:`run_sigma_v`.

    ``sigma_v[name][k]`` is the (empirical or analytic) ΣV;
    ``n_sigma_v`` divides by ``(Σ_i f(i))²``;
    ``union_sizes[method][k]`` is the mean number of distinct keys in the
    combined summary produced by that rank method (Figures 12–16 x-axis).
    """

    k_values: list[int]
    runs: int
    metric: str = "analytic"
    sigma_v: dict[str, dict[int, float]] = field(default_factory=dict)
    n_sigma_v: dict[str, dict[int, float]] = field(default_factory=dict)
    union_sizes: dict[str, dict[int, float]] = field(default_factory=dict)

    def series(self, name: str) -> list[float]:
        """ΣV values of one estimator ordered by k."""
        return [self.sigma_v[name][k] for k in self.k_values]

    def normalized_series(self, name: str) -> list[float]:
        """nΣV values of one estimator ordered by k."""
        return [self.n_sigma_v[name][k] for k in self.k_values]

    def ratio(self, numerator: str, denominator: str) -> list[float]:
        """Per-k ratio of two estimators' ΣV (e.g. independent/coordinated)."""
        return [
            self.sigma_v[numerator][k] / self.sigma_v[denominator][k]
            for k in self.k_values
        ]


def _sigma_v_one_run(
    dataset: MultiAssignmentDataset,
    tasks: Sequence[EstimatorTask],
    k_values: list[int],
    methods: list[str],
    family: RankFamily,
    seed: int,
    run: int,
    metric: str,
) -> tuple[dict, dict]:
    """One run's ΣV and union-size contributions.

    The run is fully determined by ``(seed, run)``: its draws come from
    ``default_rng([seed, run])``.
    """
    weights = dataset.weights
    run_totals: dict[str, dict[int, float]] = {
        task.name: {} for task in tasks
    }
    run_sizes: dict[str, dict[int, float]] = {name: {} for name in methods}
    rng = np.random.default_rng([seed, run])
    draws = {
        name: get_rank_method(name).draw(family, weights, rng)
        for name in methods
    }
    for k in k_values:
        if metric == "analytic":
            contexts = {
                name: make_context(weights, draws[name], k, family)
                for name in methods
            }
            for name in methods:
                run_sizes[name][k] = contexts[name].union_size()
            for task in tasks:
                assert task.sigma_v is not None
                run_totals[task.name][k] = task.sigma_v(
                    contexts[task.rank_method]
                )
        else:
            combos = sorted({(t.rank_method, t.mode) for t in tasks})
            summaries = {
                (method, mode): build_bottomk_summary(
                    weights, draws[method], k, dataset.assignments,
                    family, mode=mode,
                )
                for method, mode in combos
            }
            seen_methods = set()
            for (method, mode), summary in summaries.items():
                if method not in seen_methods:
                    run_sizes[method][k] = summary.n_union
                    seen_methods.add(method)
            for task in tasks:
                summary = summaries[(task.rank_method, task.mode)]
                adjusted = task.estimate(summary)
                run_totals[task.name][k] = adjusted.squared_error_sum(
                    task.f_values
                )
    return run_totals, run_sizes


def run_sigma_v(
    dataset: MultiAssignmentDataset,
    tasks: Sequence[EstimatorTask],
    k_values: Sequence[int],
    runs: int = 10,
    family: RankFamily | str = "ipps",
    seed: int = 0,
    metric: str = "analytic",
) -> VarianceResult:
    """ΣV of every task at every k over ``runs`` repeated draws.

    Runs execute and are summed in run-index order, so a fixed ``seed``
    gives bit-identical results.
    """
    if metric not in ("analytic", "empirical"):
        raise ValueError(f"metric must be 'analytic' or 'empirical', got {metric!r}")
    if isinstance(family, str):
        family = get_rank_family(family)
    if metric == "analytic":
        missing = [t.name for t in tasks if t.sigma_v is None]
        if missing:
            raise ValueError(
                f"tasks {missing} have no analytic sigma_v; use "
                "metric='empirical' or supply sigma_v callables"
            )
    k_values = sorted(set(int(k) for k in k_values))
    methods = sorted({task.rank_method for task in tasks})
    result = VarianceResult(k_values=list(k_values), runs=runs, metric=metric)
    totals: dict[str, dict[int, float]] = {
        task.name: {k: 0.0 for k in k_values} for task in tasks
    }
    size_totals: dict[str, dict[int, float]] = {
        name: {k: 0.0 for k in k_values} for name in methods
    }
    for run in range(runs):
        run_totals, run_sizes = _sigma_v_one_run(
            dataset, tasks, k_values, methods, family, seed, run, metric
        )
        for name, by_k in run_totals.items():
            for k, value in by_k.items():
                totals[name][k] += value
        for name, by_k in run_sizes.items():
            for k, value in by_k.items():
                size_totals[name][k] += value
    for task in tasks:
        result.sigma_v[task.name] = {
            k: totals[task.name][k] / runs for k in k_values
        }
        denom = task.aggregate_value**2
        result.n_sigma_v[task.name] = {
            k: (result.sigma_v[task.name][k] / denom if denom else float("inf"))
            for k in k_values
        }
    for name in methods:
        result.union_sizes[name] = {
            k: size_totals[name][k] / runs for k in k_values
        }
    return result


def run_sharing_index(
    dataset: MultiAssignmentDataset,
    k_values: Sequence[int],
    methods: Sequence[str] = ("shared_seed", "independent"),
    runs: int = 10,
    family: RankFamily | str = "ipps",
    seed: int = 0,
) -> dict[str, dict[int, float]]:
    """Mean sharing index per rank method per k (Figure 17 / Theorem 4.2)."""
    if isinstance(family, str):
        family = get_rank_family(family)
    k_values = sorted(set(int(k) for k in k_values))
    out: dict[str, dict[int, float]] = {
        name: {k: 0.0 for k in k_values} for name in methods
    }
    weights = dataset.weights
    m = dataset.n_assignments
    for run in range(runs):
        rng = np.random.default_rng([seed, run])
        for name in methods:
            draw = get_rank_method(name).draw(family, weights, rng)
            for k in k_values:
                context = make_context(weights, draw, k, family)
                out[name][k] += context.union_size() / (k * m)
    for name in methods:
        for k in k_values:
            out[name][k] /= runs
    return out
