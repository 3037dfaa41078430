"""One entry point per paper table/figure (the README's "Paper experiments").

Every function is deterministic given its ``seed`` and returns an
:class:`ExperimentResult` whose ``render()`` prints the reproduced
rows/series.  Defaults are laptop-scale; pass larger ``runs``/``k_values``
or dataset configs for tighter curves.

Figure map (also tabled in the README): F3 →
:func:`experiment_coord_vs_indep`, F4–F7 →
:func:`experiment_dispersed_estimators`, F8 →
:func:`experiment_sset_vs_lset`, F9–F11 →
:func:`experiment_colocated_inclusive`, F12–F16 →
:func:`experiment_variance_vs_size`, F17 →
:func:`experiment_sharing_index`, T2–T4 → :func:`table_totals`,
Theorem 4.1 → :func:`experiment_jaccard`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.aggregates import (
    AggregationSpec,
    key_values,
    max_weights,
    min_weights,
    range_weights,
)
from repro.core.dataset import MultiAssignmentDataset
from repro.core.summary import MultiAssignmentSummary
from repro.engine.queries import Query, QueryEngine
from repro.estimators.base import AdjustedWeights
from repro.estimators.colocated import inclusion_probabilities
from repro.estimators.jaccard import kmins_match_fraction
from repro.evaluation.analytic import (
    colocated_inclusion_p,
    sv_colocated_inclusive,
    sv_independent_min,
    sv_l1,
    sv_lset,
    sv_plain_rc,
    sv_sset,
    variance_from_probabilities,
)
from repro.evaluation.reporting import format_table, render_series_table
from repro.evaluation.runner import (
    EstimatorTask,
    VarianceResult,
    run_sharing_index,
    run_sigma_v,
)
from repro.ranks.assignments import get_rank_method
from repro.ranks.families import get_rank_family
from repro.sampling.kmins import kmins_sketches

__all__ = [
    "ExperimentResult",
    "dispersed_tasks",
    "colocated_tasks",
    "experiment_coord_vs_indep",
    "experiment_dispersed_estimators",
    "experiment_sset_vs_lset",
    "experiment_colocated_inclusive",
    "experiment_variance_vs_size",
    "experiment_sharing_index",
    "experiment_jaccard",
    "experiment_unweighted_baseline",
    "table_totals",
]

DEFAULT_K_VALUES = (10, 40, 160)
DEFAULT_RUNS = 20


@dataclass
class ExperimentResult:
    """Rendered-ready result of one experiment.

    ``series`` maps a label to per-k values (aligned with ``k_values``);
    ``tables`` holds extra (title, headers, rows) blocks; ``notes``
    records the qualitative check the figure makes.
    """

    experiment_id: str
    title: str
    k_values: list[int] = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)
    tables: list[tuple[str, list[str], list[list[object]]]] = field(
        default_factory=list
    )
    notes: str = ""
    variance: VarianceResult | None = None

    def render(self) -> str:
        blocks = [f"== {self.experiment_id}: {self.title} =="]
        if self.series:
            blocks.append(
                render_series_table(self.k_values, self.series)
            )
        for title, headers, rows in self.tables:
            blocks.append(format_table(headers, rows, title))
        if self.notes:
            blocks.append(f"shape check: {self.notes}")
        return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# task factories
# ---------------------------------------------------------------------------


def dispersed_tasks(
    dataset: MultiAssignmentDataset,
    include_singles: bool = True,
    include_independent: bool = True,
    include_sset: bool = False,
) -> list[EstimatorTask]:
    """Standard dispersed estimator battery over all assignments of a dataset.

    Produces the series of Figures 4–7: per-assignment single estimators,
    coordinated min-l / max / L1-l, optionally the s-set variants and the
    independent-sketches min baseline.
    """
    names = tuple(dataset.assignments)
    cols = list(range(dataset.n_assignments))
    m = len(cols)
    f_min = min_weights(dataset)
    f_max = max_weights(dataset)
    tasks: list[EstimatorTask] = []
    if include_singles:
        for pos, b in enumerate(names):
            single_spec = AggregationSpec("single", (b,))
            tasks.append(
                EstimatorTask(
                    name=f"single[{b}]",
                    rank_method="shared_seed",
                    mode="dispersed",
                    estimate=(
                        lambda s, spec=single_spec: QueryEngine.for_summary(
                            s
                        ).adjusted(spec, "plain_rc")
                    ),
                    f_values=dataset.column(b),
                    sigma_v=lambda ctx, pos=pos: sv_plain_rc(ctx, pos),
                )
            )
    min_spec = AggregationSpec("min", names)
    max_spec = AggregationSpec("max", names)
    l1_spec = AggregationSpec("l1", names)
    tasks.append(
        EstimatorTask(
            name="coord min-l",
            rank_method="shared_seed",
            mode="dispersed",
            estimate=lambda s: QueryEngine.for_summary(s).adjusted(
                min_spec, "lset"
            ),
            f_values=f_min,
            sigma_v=lambda ctx: sv_lset(ctx, cols, m, f_min),
        )
    )
    tasks.append(
        EstimatorTask(
            name="coord max",
            rank_method="shared_seed",
            mode="dispersed",
            estimate=lambda s: QueryEngine.for_summary(s).adjusted(
                max_spec, "sset"
            ),
            f_values=f_max,
            sigma_v=lambda ctx: sv_sset(ctx, cols, 1, f_max),
        )
    )
    tasks.append(
        EstimatorTask(
            name="coord L1-l",
            rank_method="shared_seed",
            mode="dispersed",
            estimate=lambda s: QueryEngine.for_summary(s).adjusted(
                l1_spec, "l1-l"
            ),
            f_values=range_weights(dataset),
            sigma_v=lambda ctx: sv_l1(ctx, cols, "l"),
        )
    )
    if include_sset:
        tasks.append(
            EstimatorTask(
                name="coord min-s",
                rank_method="shared_seed",
                mode="dispersed",
                estimate=lambda s: QueryEngine.for_summary(s).adjusted(
                    min_spec, "sset"
                ),
                f_values=f_min,
                sigma_v=lambda ctx: sv_sset(ctx, cols, m, f_min),
            )
        )
        tasks.append(
            EstimatorTask(
                name="coord L1-s",
                rank_method="shared_seed",
                mode="dispersed",
                estimate=lambda s: QueryEngine.for_summary(s).adjusted(
                    l1_spec, "l1-s"
                ),
                f_values=range_weights(dataset),
                sigma_v=lambda ctx: sv_l1(ctx, cols, "s"),
            )
        )
    if include_independent:
        tasks.append(
            EstimatorTask(
                name="ind min",
                rank_method="independent",
                mode="dispersed",
                estimate=lambda s: QueryEngine.for_summary(s).adjusted(
                    min_spec, "lset"
                ),
                f_values=f_min,
                sigma_v=lambda ctx: sv_independent_min(ctx, cols),
            )
        )
    return tasks


def colocated_tasks(
    dataset: MultiAssignmentDataset, assignments: Sequence[str] | None = None
) -> list[EstimatorTask]:
    """Colocated battery: inclusive (coord & indep) vs plain, per assignment.

    Produces the series of Figures 9–16: ``a_c`` (coordinated inclusive),
    ``a_i`` (independent inclusive), ``a_{p,c}``/``a_{p,i}`` (plain RC
    applied to the embedded sketch of each summary type).
    """
    if assignments is None:
        assignments = dataset.assignments
    tasks: list[EstimatorTask] = []
    for b in assignments:
        pos = dataset.assignment_position(b)
        f_values = dataset.column(b)
        spec = AggregationSpec("single", (b,))
        tasks.extend(
            [
                EstimatorTask(
                    name=f"coord comb[{b}]",
                    rank_method="shared_seed",
                    mode="colocated",
                    estimate=lambda s, spec=spec: QueryEngine.for_summary(
                        s
                    ).adjusted(spec, "colocated"),
                    f_values=f_values,
                    sigma_v=lambda ctx, f=f_values: sv_colocated_inclusive(ctx, f),
                ),
                EstimatorTask(
                    name=f"ind comb[{b}]",
                    rank_method="independent",
                    mode="colocated",
                    estimate=lambda s, spec=spec: QueryEngine.for_summary(
                        s
                    ).adjusted(spec, "colocated"),
                    f_values=f_values,
                    sigma_v=lambda ctx, f=f_values: sv_colocated_inclusive(ctx, f),
                ),
                EstimatorTask(
                    name=f"coord plain[{b}]",
                    rank_method="shared_seed",
                    mode="colocated",
                    estimate=lambda s, spec=spec: QueryEngine.for_summary(
                        s
                    ).adjusted(spec, "plain_rc"),
                    f_values=f_values,
                    sigma_v=lambda ctx, pos=pos: sv_plain_rc(ctx, pos),
                ),
                EstimatorTask(
                    name=f"ind plain[{b}]",
                    rank_method="independent",
                    mode="colocated",
                    estimate=lambda s, spec=spec: QueryEngine.for_summary(
                        s
                    ).adjusted(spec, "plain_rc"),
                    f_values=f_values,
                    sigma_v=lambda ctx, pos=pos: sv_plain_rc(ctx, pos),
                ),
            ]
        )
    return tasks


# ---------------------------------------------------------------------------
# dispersed-model experiments (Figures 3–8)
# ---------------------------------------------------------------------------


def experiment_coord_vs_indep(
    dataset: MultiAssignmentDataset,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    runs: int = DEFAULT_RUNS,
    family: str = "ipps",
    seed: int = 0,
    experiment_id: str = "F3",
    title: str = "ΣV[ind min] / ΣV[coord min-l] vs k",
) -> ExperimentResult:
    """Figure 3: the variance ratio of independent vs coordinated min estimators.

    Shape to reproduce: ratio ≫ 1 everywhere, decreasing in k, growing
    (dramatically) with the number of assignments.
    """
    tasks = dispersed_tasks(
        dataset, include_singles=False, include_independent=True
    )
    keep = [t for t in tasks if t.name in ("coord min-l", "ind min")]
    result = run_sigma_v(dataset, keep, k_values, runs, family, seed)
    ratio = result.ratio("ind min", "coord min-l")
    out = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        k_values=list(result.k_values),
        series={
            "ind min": result.series("ind min"),
            "coord min-l": result.series("coord min-l"),
            "ratio ind/coord": ratio,
        },
        notes=(
            "coordination wins by orders of magnitude; the ratio shrinks as "
            "k grows and explodes with |R|"
        ),
        variance=result,
    )
    return out


def experiment_dispersed_estimators(
    dataset: MultiAssignmentDataset,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    runs: int = DEFAULT_RUNS,
    family: str = "ipps",
    seed: int = 0,
    include_independent: bool = True,
    experiment_id: str = "F4",
    title: str = "ΣV and nΣV of dispersed multi-assignment estimators",
) -> ExperimentResult:
    """Figures 4–7: coord min-l/max/L1-l vs the single-assignment estimators.

    Shape: the multi-assignment coordinated estimators sit within an order
    of magnitude of the per-assignment estimators; ΣV[min] < ΣV[max];
    ΣV[L1] < ΣV[max]; nΣV ordering reverses (smaller normalizers).
    """
    tasks = dispersed_tasks(dataset, include_independent=include_independent)
    result = run_sigma_v(dataset, tasks, k_values, runs, family, seed)
    series = {task.name: result.series(task.name) for task in tasks}
    normalized_series = {
        f"n {task.name}": result.normalized_series(task.name) for task in tasks
    }
    out = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        k_values=list(result.k_values),
        series=series,
        notes=(
            "ΣV[coord min] <= min_b ΣV[single b]; ΣV[coord L1] < ΣV[coord max];"
            " all within ~1 order of magnitude of the single-assignment curves"
        ),
        variance=result,
    )
    out.tables.append(
        (
            "normalized nΣV",
            ["k"] + list(normalized_series),
            [
                [k] + [normalized_series[label][i] for label in normalized_series]
                for i, k in enumerate(result.k_values)
            ],
        )
    )
    return out


def experiment_sset_vs_lset(
    dataset: MultiAssignmentDataset,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    runs: int = DEFAULT_RUNS,
    family: str = "ipps",
    seed: int = 0,
    experiment_id: str = "F8",
    title: str = "ΣV ratio of s-set vs l-set estimators (min and L1)",
) -> ExperimentResult:
    """Figure 8: the l-set estimator dominates the s-set estimator.

    Shape: both ratios >= 1 (up to sampling noise), magnitude varies by
    dataset (the paper saw 0%–300%).
    """
    tasks = dispersed_tasks(
        dataset,
        include_singles=False,
        include_independent=False,
        include_sset=True,
    )
    result = run_sigma_v(dataset, tasks, k_values, runs, family, seed)
    out = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        k_values=list(result.k_values),
        series={
            "min-s/min-l": result.ratio("coord min-s", "coord min-l"),
            "L1-s/L1-l": result.ratio("coord L1-s", "coord L1-l"),
        },
        notes="ratios >= 1: the more inclusive l-set selection never loses",
        variance=result,
    )
    return out


# ---------------------------------------------------------------------------
# colocated-model experiments (Figures 9–17)
# ---------------------------------------------------------------------------


def experiment_colocated_inclusive(
    dataset: MultiAssignmentDataset,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    runs: int = DEFAULT_RUNS,
    family: str = "ipps",
    seed: int = 0,
    experiment_id: str = "F9",
    title: str = "ΣV[inclusive] / ΣV[plain] per assignment",
) -> ExperimentResult:
    """Figures 9–11: inclusive estimators beat the plain single-sketch RC.

    Shape: every ratio < 1; the independent-summary ratio is smaller than
    the coordinated one (independent unions hold more distinct keys).
    """
    tasks = colocated_tasks(dataset)
    result = run_sigma_v(dataset, tasks, k_values, runs, family, seed)
    series: dict[str, list[float]] = {}
    for b in dataset.assignments:
        series[f"coord/{b}"] = result.ratio(f"coord comb[{b}]", f"coord plain[{b}]")
        series[f"ind/{b}"] = result.ratio(f"ind comb[{b}]", f"ind plain[{b}]")
    out = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        k_values=list(result.k_values),
        series=series,
        notes=(
            "all ratios < 1 (Lemma 8.2); independent-summary ratios are the "
            "smallest because independent unions contain more keys"
        ),
        variance=result,
    )
    return out


def experiment_variance_vs_size(
    dataset: MultiAssignmentDataset,
    assignment: str,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    runs: int = DEFAULT_RUNS,
    family: str = "ipps",
    seed: int = 0,
    experiment_id: str = "F12",
    title: str = "nΣV vs combined sample size",
) -> ExperimentResult:
    """Figures 12–16: variance as a function of *storage* (distinct keys).

    Shape: at equal combined size, plain-over-independent is worst,
    plain-over-coordinated next, and the two inclusive estimators are
    similar and best.
    """
    tasks = colocated_tasks(dataset, [assignment])
    result = run_sigma_v(dataset, tasks, k_values, runs, family, seed)
    coord_sizes = result.union_sizes["shared_seed"]
    ind_sizes = result.union_sizes["independent"]
    headers = [
        "k",
        "size(coord)",
        "size(ind)",
        "n coord comb",
        "n ind comb",
        "n coord plain",
        "n ind plain",
    ]
    rows = []
    for i, k in enumerate(result.k_values):
        rows.append(
            [
                k,
                coord_sizes[k],
                ind_sizes[k],
                result.normalized_series(f"coord comb[{assignment}]")[i],
                result.normalized_series(f"ind comb[{assignment}]")[i],
                result.normalized_series(f"coord plain[{assignment}]")[i],
                result.normalized_series(f"ind plain[{assignment}]")[i],
            ]
        )
    out = ExperimentResult(
        experiment_id=experiment_id,
        title=f"{title} (assignment={assignment})",
        tables=[("nΣV vs combined size", headers, rows)],
        notes=(
            "per stored key, inclusive-coordinated ~ inclusive-independent "
            "< plain-coordinated < plain-independent"
        ),
        variance=result,
    )
    return out


def experiment_sharing_index(
    dataset: MultiAssignmentDataset,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    runs: int = 10,
    family: str = "ipps",
    seed: int = 0,
    experiment_id: str = "F17",
    title: str = "sharing index of coordinated vs independent sketches",
) -> ExperimentResult:
    """Figure 17 / Theorem 4.2: coordination minimizes distinct keys.

    Shape: coordinated index < independent index at every k; both decrease
    as k approaches the number of keys.
    """
    indices = run_sharing_index(dataset, k_values, runs=runs, family=family,
                                seed=seed)
    ks = sorted(next(iter(indices.values())))
    out = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        k_values=list(ks),
        series={
            "coordinated": [indices["shared_seed"][k] for k in ks],
            "independent": [indices["independent"][k] for k in ks],
        },
        notes="coordinated < independent everywhere (Theorem 4.2)",
    )
    return out


# ---------------------------------------------------------------------------
# totals tables, Jaccard, and ablation baselines
# ---------------------------------------------------------------------------


def table_totals(
    dataset: MultiAssignmentDataset,
    assignment_sets: Sequence[Sequence[str]],
    experiment_id: str = "T2",
    title: str = "per-assignment totals and multi-assignment norms",
    summary: MultiAssignmentSummary | None = None,
) -> ExperimentResult:
    """Tables 2–4: exact totals the estimators are later judged against.

    When ``summary`` is given, the norm table additionally carries the
    estimated norms, answered as one :class:`QueryEngine` batch so the
    min/max/L1 queries per subset share their sorts and thresholds.
    """
    per_assignment_rows = [
        [
            b,
            dataset.support_size(b),
            dataset.total(b),
        ]
        for b in dataset.assignments
    ]
    estimates: dict[tuple[str, str], float] = {}
    if summary is not None:
        engine = QueryEngine.for_summary(summary, dataset)
        queries = [
            Query(AggregationSpec(function, tuple(subset)))
            for subset in assignment_sets
            for function in ("min", "max", "l1")
        ]
        for result in engine.run(queries):
            spec = result.query.spec
            estimates[(spec.function, "+".join(spec.assignments))] = (
                result.estimate
            )
    norm_rows = []
    norm_headers = ["R", "Σ min", "Σ max", "Σ L1"]
    if summary is not None:
        norm_headers += ["est Σ min", "est Σ max", "est Σ L1"]
    for subset in assignment_sets:
        subset = list(subset)
        name = "+".join(subset)
        row: list[object] = [
            name,
            float(min_weights(dataset, subset).sum()),
            float(max_weights(dataset, subset).sum()),
            float(range_weights(dataset, subset).sum()),
        ]
        if summary is not None:
            row += [
                estimates[("min", name)],
                estimates[("max", name)],
                estimates[("l1", name)],
            ]
        norm_rows.append(row)
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        tables=[
            (
                "per-assignment totals",
                ["assignment", "distinct keys", "total weight"],
                per_assignment_rows,
            ),
            (
                "multi-assignment norms",
                norm_headers,
                norm_rows,
            ),
        ],
    )


def experiment_jaccard(
    dataset: MultiAssignmentDataset,
    assignment_a: str,
    assignment_b: str,
    k: int = 200,
    runs: int = 10,
    seed: int = 0,
    experiment_id: str = "THM4.1",
    title: str = "k-mins match fraction vs weighted Jaccard",
) -> ExperimentResult:
    """Theorem 4.1: match fraction estimates weighted Jaccard unbiasedly."""
    from repro.core.aggregates import jaccard_similarity

    family = get_rank_family("exp")
    method = get_rank_method("independent_differences")
    cols = dataset.assignment_positions([assignment_a, assignment_b])
    weights = dataset.weights[:, cols]
    exact = jaccard_similarity(dataset, assignment_a, assignment_b)
    estimates = []
    for run in range(runs):
        rng = np.random.default_rng([seed, run])
        sketches = kmins_sketches(weights, family, method, k, rng)
        estimates.append(kmins_match_fraction(sketches[0], sketches[1]))
    mean_estimate = float(np.mean(estimates))
    rows = [
        ["exact weighted Jaccard", exact],
        [f"mean of {runs} k-mins estimates (k={k})", mean_estimate],
        ["absolute error", abs(mean_estimate - exact)],
        ["binomial std dev (1 run)", float(np.sqrt(exact * (1 - exact) / k))],
    ]
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"{title} ({assignment_a} vs {assignment_b})",
        tables=[("Jaccard", ["quantity", "value"], rows)],
        notes="mean estimate matches the exact similarity within noise",
    )


def experiment_unweighted_baseline(
    dataset: MultiAssignmentDataset,
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    runs: int = DEFAULT_RUNS,
    family: str = "ipps",
    seed: int = 0,
    experiment_id: str = "A2",
    title: str = "weighted vs unweighted coordinated sketches",
) -> ExperimentResult:
    """Ablation A2: coordinated *uniform* sampling on skewed data.

    The paper (§9.2) applies prior global-weights methods by replacing all
    positive weights with 1; the resulting estimators are orders of
    magnitude worse on skewed data.  We estimate each assignment's weighted
    sum from (a) the weighted coordinated summary and (b) a uniform
    coordinated summary whose estimator re-weights sampled keys by their
    true weight over the uniform inclusion probability.
    """
    uniform = MultiAssignmentDataset(
        dataset.keys,
        dataset.assignments,
        (dataset.weights > 0).astype(float),
        attributes=dataset.attributes,
    )
    true_weights = dataset.weights

    def unweighted_estimate(
        summary: MultiAssignmentSummary, column: int
    ) -> AdjustedWeights:
        probabilities = inclusion_probabilities(summary)
        f_at = true_weights[summary.positions, column]
        values = np.divide(
            f_at, probabilities, out=np.zeros_like(f_at),
            where=probabilities > 0.0,
        )
        return AdjustedWeights(summary.positions.copy(), values, "unweighted")

    weighted_tasks = []
    unweighted_tasks = []
    for pos, b in enumerate(dataset.assignments):
        spec = AggregationSpec("single", (b,))
        f_values = dataset.column(b)
        weighted_tasks.append(
            EstimatorTask(
                name=f"weighted[{b}]",
                rank_method="shared_seed",
                mode="colocated",
                estimate=lambda s, spec=spec: QueryEngine.for_summary(
                    s
                ).adjusted(spec, "colocated"),
                f_values=f_values,
                sigma_v=lambda ctx, f=f_values: sv_colocated_inclusive(ctx, f),
            )
        )
        unweighted_tasks.append(
            EstimatorTask(
                name=f"unweighted[{b}]",
                rank_method="shared_seed",
                mode="colocated",
                estimate=lambda s, pos=pos: unweighted_estimate(s, pos),
                f_values=f_values,
                sigma_v=lambda ctx, f=f_values: variance_from_probabilities(
                    f, colocated_inclusion_p(ctx)
                ),
            )
        )
    weighted_result = run_sigma_v(
        dataset, weighted_tasks, k_values, runs, family, seed
    )
    unweighted_result = run_sigma_v(
        uniform, unweighted_tasks, k_values, runs, family, seed
    )
    series = {}
    for b in dataset.assignments:
        series[f"ratio unw/w [{b}]"] = [
            unweighted_result.sigma_v[f"unweighted[{b}]"][k]
            / weighted_result.sigma_v[f"weighted[{b}]"][k]
            for k in weighted_result.k_values
        ]
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        k_values=list(weighted_result.k_values),
        series=series,
        notes="unweighted coordination loses by large factors on skewed data",
    )
