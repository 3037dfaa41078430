"""Coordinated weighted sampling for multiple-assignment aggregates.

Reproduction of Cohen, Kaplan & Sen, *"Coordinated Weighted Sampling:
Estimation of Multiple-Assignment Aggregates"* (VLDB 2009).

Quick tour
----------
>>> import numpy as np
>>> from repro import (MultiAssignmentDataset, AggregationSpec,
...                    QueryEngine, summarize_dataset)
>>> ds = MultiAssignmentDataset(
...     keys=["i1", "i2", "i3"],
...     assignments=["hour1", "hour2"],
...     weights=[[15.0, 20.0], [0.0, 10.0], [10.0, 12.0]],
... )
>>> summary = summarize_dataset(ds, k=2, mode="dispersed", seed=7)
>>> engine = QueryEngine(summary)
>>> a = engine.adjusted(AggregationSpec("max", ("hour1", "hour2")), "sset")
>>> a.total() > 0
True

The package layout mirrors the paper: :mod:`repro.ranks` (rank families
and consistent rank assignments), :mod:`repro.sampling` (bottom-k /
Poisson / k-mins sketches), :mod:`repro.estimators` (inclusive, s-set,
l-set, HT, RC, Jaccard), :mod:`repro.datasets` (synthetic stand-ins for
the paper's workloads), and :mod:`repro.evaluation` (the per-figure
experiment harness).
"""

import numpy as np

from repro.core import (
    AggregationSpec,
    MultiAssignmentDataset,
    WeightedSet,
    all_keys,
    attribute_equals,
    exact_aggregate,
    jaccard_similarity,
    key_in,
    key_values,
)
from repro.core.summary import (
    MultiAssignmentSummary,
    build_bottomk_summary,
    build_poisson_summary,
    build_summary_from_sketches,
)
from repro.engine import (
    Query,
    QueryEngine,
    QueryResult,
    ShardedSummarizer,
    jaccard_from_summary,
    merge_bottomk,
    merge_poisson,
)
from repro.estimators import AdjustedWeights, jaccard_from_kmins
from repro.ranks import (
    ExponentialRanks,
    IppsRanks,
    KeyHasher,
    get_rank_family,
    get_rank_method,
)
from repro.sampling import (
    BottomKStreamSampler,
    aggregate_stream,
    bottomk_from_ranks,
    calibrate_tau,
    kmins_sketches,
    poisson_from_ranks,
)
from repro.store import (
    SketchBundle,
    SummarizerCheckpoint,
    SummaryStore,
)

__version__ = "1.0.0"

__all__ = [
    "MultiAssignmentDataset",
    "WeightedSet",
    "AggregationSpec",
    "exact_aggregate",
    "key_values",
    "jaccard_similarity",
    "all_keys",
    "key_in",
    "attribute_equals",
    "MultiAssignmentSummary",
    "build_bottomk_summary",
    "build_poisson_summary",
    "build_summary_from_sketches",
    "summarize_dataset",
    "ShardedSummarizer",
    "merge_bottomk",
    "merge_poisson",
    "Query",
    "QueryEngine",
    "QueryResult",
    "jaccard_from_summary",
    "AdjustedWeights",
    "jaccard_from_kmins",
    "ExponentialRanks",
    "IppsRanks",
    "get_rank_family",
    "get_rank_method",
    "KeyHasher",
    "BottomKStreamSampler",
    "aggregate_stream",
    "bottomk_from_ranks",
    "poisson_from_ranks",
    "calibrate_tau",
    "kmins_sketches",
    "SketchBundle",
    "SummarizerCheckpoint",
    "SummaryStore",
]


def summarize_dataset(
    dataset: MultiAssignmentDataset,
    k: int,
    mode: str = "colocated",
    method: str = "shared_seed",
    family: str = "ipps",
    seed: int = 0,
) -> MultiAssignmentSummary:
    """One-call summarization: draw ranks and build a bottom-k summary.

    Parameters
    ----------
    dataset:
        the keys × assignments weight matrix to summarize.
    k:
        per-assignment bottom-k sample size.
    mode:
        ``"colocated"`` (full weight vectors stored) or ``"dispersed"``
        (per-assignment weights only where sampled).
    method:
        rank-assignment method (``"shared_seed"``, ``"independent"``,
        ``"independent_differences"``).
    family:
        rank family (``"ipps"`` or ``"exp"``).
    seed:
        RNG seed; identical seeds give identical summaries.
    """
    rank_family = get_rank_family(family)
    rank_method = get_rank_method(method)
    rng = np.random.default_rng(seed)
    draw = rank_method.draw(rank_family, dataset.weights, rng)
    return build_bottomk_summary(
        dataset.weights, draw, k, dataset.assignments, rank_family, mode=mode
    )
