"""s-set and l-set estimators for dispersed summaries (Section 7).

In the dispersed model, ``w^(b)(i)`` is in the summary only when ``i`` made
the bottom-k sketch of ``b``.  Estimable aggregations are the *top-ℓ
dependent* ones (Definition 7.1): ``f`` and ``d`` depend only on the ℓ
largest weights of the key (and which assignments attain them), and vanish
when the ℓ-th largest weight is zero.  Max is top-1 dependent, min is
top-|R| dependent, the ℓ-th largest weight is top-ℓ dependent.

Two template selections are implemented:

* **s-set** (:func:`sset_kernel`) — a key qualifies when at least ℓ of
  its ranks fall below the *global* threshold
  ``r^(min R)_k(I∖{i}) = min_b r^(b)_k(I∖{i})``.  Simple closed form for
  every consistent rank distribution.
* **l-set** (:func:`lset_kernel`) — the most inclusive selection that
  still determines the top-ℓ weights: the key is in at least ℓ sketches
  *and* known seeds certify that every other assignment's weight is at most
  the ℓ-th largest observed.  Dominates s-set (Lemma 5.1); closed forms for
  shared-seed consistent ranks (Eq. (13)/(15)) and independent ranks with
  known seeds (Eq. (14)/(16)).

The L1/range aggregate is not top-ℓ dependent for any ℓ; it is estimated as
``a^(L1) = a^(max) − a^(min)`` (Eq. (17)), which is unbiased and, for
consistent IPPS/EXP ranks, non-negative (Lemma 7.5): min-selection implies
max-selection and ``p^max/p^min <= w^max/w^min`` (Lemma 7.4).
:class:`~repro.engine.queries.QueryEngine` composes it from the two
kernels' cached outputs as its ``l1-s`` / ``l1-l`` estimators.

Both kernels read their intermediates (thresholds, top-ℓ weights, CDF
matrices) from the summary's cached views, so queries over the same ``R``
share them.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregates import AggregationSpec
from repro.core.summary import MultiAssignmentSummary

__all__ = ["sset_kernel", "lset_kernel"]


def _resolve_ell(spec: AggregationSpec) -> int:
    if spec.function == "l1":
        raise ValueError(
            "the L1 aggregate is not top-ℓ dependent; use the engine's "
            "'l1-s' or 'l1-l' estimator (a^max − a^min, Section 7.3)"
        )
    return spec.dependence_ell


def sset_kernel(
    summary: MultiAssignmentSummary, spec: AggregationSpec
) -> np.ndarray:
    """Dense s-set top-ℓ adjusted weights over union rows (Section 7.1).

    Selection: ``R'(i) = {b ∈ R : r^(b)(i) < r^(min R)_k(I∖{i})}`` has at
    least ℓ members.  Consistency makes ``R'`` weight-downward-closed, so
    the ℓ largest weights in ``R'`` are the global top-ℓ (Lemma 7.2), and

    ``p(i) = F_{w^(ℓth largest R)(i)}(r^(min R)_k(I∖{i}))``.

    For *independent* ranks only min-dependence (ℓ = |R|) is supported,
    with ``p(i) = Π_b F_{w^(b)(i)}(r^(min R)_{k+1}(I))`` (Section 7.1.1).
    """
    ell = _resolve_ell(spec)
    sub = summary.views().subset(summary.columns(list(spec.assignments)))
    if not summary.consistent and ell != len(sub.cols):
        raise ValueError(
            "s-set estimation over independent sketches is only defined for "
            "min-dependence (ℓ = |R|)"
        )
    theta_min = sub.theta_min
    selected = sub.in_prime_counts >= ell
    w_ellth = sub.sset_top(ell)
    if summary.consistent:
        probabilities = summary.family.cdf_matrix(
            np.where(selected, w_ellth, 0.0), theta_min
        )
    else:
        # Independent ranks, min-dependence: every weight is known (the key
        # is in all |R| sketches) and inclusions are independent.
        per_b = summary.family.cdf_matrix(
            np.where(selected[:, None], sub.sset_weights, 0.0),
            theta_min[:, None],
        )
        probabilities = np.prod(per_b, axis=1)
    # Every top-ℓ dependent f is the ℓ-th largest weight (max: ℓ = 1,
    # min: ℓ = |R|).
    f_values = np.where(selected, w_ellth, 0.0)
    return np.divide(
        f_values,
        probabilities,
        out=np.zeros_like(f_values),
        where=(probabilities > 0.0) & selected,
    )


def lset_kernel(
    summary: MultiAssignmentSummary, spec: AggregationSpec
) -> np.ndarray:
    """Dense l-set top-ℓ adjusted weights over union rows (Section 7.2).

    Selection: at least ℓ sketch memberships among R, plus seed conditions
    ``u^(b)(i) < F_{w_ℓth}(θ_b)`` certifying that every assignment outside
    the observed top-ℓ has weight at most the ℓ-th largest observed
    weight.  Probabilities:

    * shared-seed (Eq. (13)):
      ``min( min_{b∈top-ℓ} F_{w_b}(θ_b), min_{b∉top-ℓ} F_{w_ℓth}(θ_b) )``
    * independent with known seeds (Eq. (14)):
      ``Π_{b∈top-ℓ} F_{w_b}(θ_b) · Π_{b∉top-ℓ} F_{w_ℓth}(θ_b)``

    where ``θ_b = r^(b)_k(I∖{i})`` throughout.
    """
    ell = _resolve_ell(spec)
    sub = summary.views().subset(summary.columns(list(spec.assignments)))
    candidate = sub.member_counts >= ell
    w_ellth, top_mask = sub.top(ell)
    theta = sub.theta
    if ell < len(sub.cols):
        seed_matrix = sub.seed_matrix
        if seed_matrix is None:
            raise ValueError(
                "the l-set estimator needs known seeds; this summary's rank "
                "method does not expose them"
            )
        caps = summary.family.cdf_matrix(
            np.where(candidate, np.maximum(w_ellth, 0.0), 0.0)[:, None], theta
        )
        # Only assignments outside the observed top-ℓ constrain the selection.
        selected = candidate & ((seed_matrix < caps) | top_mask).all(axis=1)
    else:
        selected = candidate
    cap_terms = summary.family.cdf_matrix(
        np.maximum(np.where(selected, w_ellth, 0.0), 0.0)[:, None], theta
    )
    per_b = np.where(top_mask, sub.member_cdf, cap_terms)
    if summary.method_name == "shared_seed":
        probabilities = per_b.min(axis=1)
    elif summary.method_name == "independent":
        probabilities = np.prod(per_b, axis=1)
    elif summary.consistent:
        raise ValueError(
            "closed-form l-set probabilities are implemented for shared-seed "
            "consistent ranks and independent ranks with known seeds; "
            f"got {summary.method_name!r} (use the s-set estimator instead)"
        )
    else:
        raise ValueError(f"unknown rank method {summary.method_name!r}")
    f_values = np.where(selected, w_ellth, 0.0)
    return np.divide(
        f_values,
        probabilities,
        out=np.zeros_like(f_values),
        where=(probabilities > 0.0) & selected,
    )
