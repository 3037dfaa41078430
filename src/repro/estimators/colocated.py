"""Inclusive estimators for colocated summaries (Section 6).

In the colocated model the full weight vector of a key rides along with it
into the summary, so *any* union key can contribute to *any* aggregate.
The inclusive estimator applies the template with the most inclusive
selection possible — ``S*(i) = {i ∈ S}`` — which by Lemma 5.1 gives the
lowest variance among template estimators, and in particular dominates the
plain single-sketch RC estimator (Lemma 8.2).

The per-key conditional inclusion probability ``p(i, r^{-i})`` (Eq. (4))
depends on the rank-assignment method:

* independent ranks (Eq. (5)):
  ``1 − Π_b (1 − F_{w^(b)(i)}(r^(b)_k(I∖{i})))``;
* shared-seed consistent ranks (Eq. (6)):
  ``max_b F_{w^(b)(i)}(r^(b)_k(I∖{i}))``;
* independent-differences consistent ranks: the ``Pr[A_ℓ]`` recursion over
  the sorted weight vector.

The same code paths serve Poisson summaries by substituting the fixed
``τ^(b)`` for ``r^(b)_k(I∖{i})`` (the summary's ``thresholds`` matrix
already encodes the right quantity for its kind).

The inclusion probabilities do not depend on the aggregate, so
:func:`inclusion_probabilities` computes them once per summary (in its
views cache) and every colocated query shares them.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregates import AggregationSpec
from repro.core.summary import MultiAssignmentSummary

__all__ = ["inclusion_probabilities", "colocated_kernel", "generic_kernel"]


def _require_colocated(summary: MultiAssignmentSummary) -> None:
    if summary.mode != "colocated":
        raise ValueError(
            "inclusive colocated estimators need full weight vectors; "
            f"summary is {summary.mode!r}"
        )


def _independent_differences_probabilities(
    summary: MultiAssignmentSummary,
) -> np.ndarray:
    """Pr[union inclusion] for independent-differences consistent EXP ranks.

    Per key, with weights sorted ascending ``w_(1) <= ... <= w_(h)``, the
    increments ``d_j ~ Exp(w_(j) − w_(j−1))`` are independent and the key is
    included iff some ``d_j <= M_j`` where ``M_j = max_{a >= j} θ_(a)``
    (θ reordered like the weights).  Summing the disjoint events ``A_j``
    ("j is the first index with d_j <= M_j") gives

    ``p = Σ_ℓ Π_{j<ℓ}(1 − F_{Δ_j}(M_j)) · F_{Δ_ℓ}(M_ℓ)``

    with ``F_Δ`` the EXP CDF of the weight increment (zero increments never
    fire, matching equal weights ⇒ equal ranks).
    """
    weights = summary.weights
    thresholds = summary.thresholds
    order = np.argsort(weights, axis=1, kind="stable")
    sorted_w = np.take_along_axis(weights, order, axis=1)
    sorted_theta = np.take_along_axis(thresholds, order, axis=1)
    # M_j = max over a >= j of sorted_theta[:, a]  (suffix maximum).
    suffix_max = np.maximum.accumulate(sorted_theta[:, ::-1], axis=1)[:, ::-1]
    increments = np.diff(sorted_w, axis=1, prepend=0.0)
    fire = summary.family.cdf_matrix(increments, suffix_max)
    survive = np.cumprod(1.0 - fire, axis=1)
    shifted = np.concatenate(
        [np.ones((len(fire), 1)), survive[:, :-1]], axis=1
    )
    # Row-major whatever the summary's layout: numpy pairs the terms of a
    # contiguous axis but adds a strided axis's in sequence, and from
    # m = 8 on the two differ in the last bits.
    return np.ascontiguousarray(shifted * fire).sum(axis=1)


def inclusion_probabilities(summary: MultiAssignmentSummary) -> np.ndarray:
    """Conditional probability that each union key enters the summary (Eq. (4)).

    Dispatches on the rank-assignment method the summary was drawn with:
    Eq. (5) for independent ranks, Eq. (6) for shared-seed ranks, the
    ``Pr[A_ℓ]`` recursion for independent differences.  Computed once per
    summary and returned read-only from its views cache.
    """
    _require_colocated(summary)
    views = summary.views()

    def compute() -> np.ndarray:
        cdf = views.cdf_weight_threshold
        if summary.method_name == "independent":
            return 1.0 - np.prod(1.0 - cdf, axis=1)
        if summary.method_name == "shared_seed":
            return cdf.max(axis=1)
        if summary.method_name == "independent_differences":
            if summary.family.name != "exp":
                raise ValueError("independent-differences requires EXP ranks")
            return _independent_differences_probabilities(summary)
        raise ValueError(f"unknown rank method {summary.method_name!r}")

    return views.cached("inclusion_probabilities", compute)


def _f_values_from_summary(
    summary: MultiAssignmentSummary, spec: AggregationSpec
) -> np.ndarray:
    """Per-union-key values of ``f`` computed from the stored weight vectors."""
    cols = summary.columns(list(spec.assignments))
    block = summary.weights[:, cols]
    if spec.function == "single":
        return block[:, 0].copy()
    if spec.function == "min":
        return block.min(axis=1)
    if spec.function == "max":
        return block.max(axis=1)
    if spec.function == "l1":
        return block.max(axis=1) - block.min(axis=1)
    if spec.function == "lth_largest":
        assert spec.ell is not None
        return -np.sort(-block, axis=1)[:, spec.ell - 1]
    raise ValueError(f"unknown aggregate function {spec.function!r}")


def colocated_kernel(
    summary: MultiAssignmentSummary, spec: AggregationSpec
) -> np.ndarray:
    """Dense inclusive adjusted weights ``f(i)/p(i)`` over union rows.

    Valid for every aggregate whose per-key value is a function of the
    weight vector over ``spec.assignments`` — including the L1 difference,
    which needs no special treatment here because the full weight vector is
    stored with every sampled key (unlike the dispersed model).
    """
    f_values = _f_values_from_summary(summary, spec)
    probabilities = inclusion_probabilities(summary)
    return np.divide(
        f_values,
        probabilities,
        out=np.zeros_like(f_values),
        where=probabilities > 0.0,
    )


def generic_kernel(
    summary: MultiAssignmentSummary, spec: AggregationSpec
) -> np.ndarray:
    """Dense generic consistent-ranks adjusted weights (Eq. (7)).

    Selection: ``min_{b∈R} r^(b)(i) < r^(min R)_k(I∖{i})``; probability
    ``F_{w^(max R)(i)}(r^(min R)_k(I∖{i}))``.  An ablation baseline:
    universal across consistent rank distributions, but strictly less
    inclusive than the tailored shared-seed / independent-differences
    estimators, hence weaker (Lemma 5.1).
    """
    _require_colocated(summary)
    if not summary.consistent:
        raise ValueError("the generic estimator requires consistent ranks")
    cols = summary.columns(list(spec.assignments))
    sub = summary.views().subset(cols)
    theta_min = sub.theta_min
    selected = sub.ranks.min(axis=1) < theta_min
    max_weight = summary.weights[:, cols].max(axis=1)
    probabilities = summary.family.cdf_matrix(max_weight, theta_min)
    f_values = _f_values_from_summary(summary, spec)
    return np.divide(
        f_values,
        probabilities,
        out=np.zeros_like(f_values),
        where=(probabilities > 0.0) & selected,
    )
