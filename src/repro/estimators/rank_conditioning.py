"""Plain rank-conditioning (RC) adjusted weights for bottom-k sketches.

Inclusion of key ``i`` in a bottom-k sample depends on all other weights,
so HT does not apply directly.  RC conditions on the k-th smallest rank
among the *other* keys — observable as ``r_{k+1}(I)`` when ``i`` is in the
sketch — giving conditional inclusion probability ``F_{w(i)}(r_{k+1})``
and adjusted weight ``a(i) = w(i) / F_{w(i)}(r_{k+1}(I))`` (Section 3).

With IPPS ranks this is the priority-sampling estimator, whose sum of
per-key variances is at most that of HT over an IPPS Poisson sample of
expected size k+1.

:func:`plain_rc_kernel` is the estimator over a summary; it reads the
member cells of the shared ``F_w(θ)`` view.
"""

from __future__ import annotations

import numpy as np

from repro.core.summary import MultiAssignmentSummary
from repro.estimators.base import AdjustedWeights, single_sketch_dense
from repro.ranks.families import RankFamily
from repro.sampling.bottomk import BottomKSketch

__all__ = [
    "plain_rc_adjusted_weights",
    "plain_rc_from_summary",
    "plain_rc_kernel",
]


def plain_rc_adjusted_weights(
    sketch: BottomKSketch, family: RankFamily, label: str = "rc"
) -> AdjustedWeights:
    """RC adjusted weights ``w(i)/F_{w(i)}(r_{k+1})`` for one bottom-k sketch.

    >>> import numpy as np
    >>> from repro.ranks import IppsRanks
    >>> from repro.sampling import bottomk_from_ranks
    >>> sk = bottomk_from_ranks(np.array([0.011, 0.075, 0.037]),
    ...                         np.array([20.0, 10.0, 10.0]), k=1)
    >>> round(float(plain_rc_adjusted_weights(sk, IppsRanks()).values[0]), 2)
    27.03
    """
    probabilities = family.cdf_array(sketch.weights, sketch.threshold)
    values = np.divide(
        sketch.weights,
        probabilities,
        out=np.zeros_like(sketch.weights),
        where=probabilities > 0.0,
    )
    return AdjustedWeights(sketch.keys.astype(np.int64), values, label)


def plain_rc_kernel(
    summary: MultiAssignmentSummary, assignment: str
) -> np.ndarray:
    """Dense plain-RC adjusted weights ``w(i)/F_{w(i)}(r_{k+1})`` over union rows.

    For members of b's sketch ``θ_ib`` *is* ``r^(b)_{k+1}(I)``.
    """
    if summary.kind != "bottomk":
        raise ValueError("plain_rc_kernel requires a bottom-k summary")
    return single_sketch_dense(summary, assignment)


def plain_rc_from_summary(
    summary: MultiAssignmentSummary, assignment: str, label: str = ""
) -> AdjustedWeights:
    """Plain RC estimator for one assignment embedded in a bottom-k summary.

    Uses only the keys of that assignment's own bottom-k sketch (the
    ``a_p`` estimator of the evaluation, Section 9.3); the inclusive
    estimators of :mod:`repro.estimators.colocated` dominate it by also
    exploiting keys sampled for the other assignments (Lemma 8.2).
    """
    return AdjustedWeights.from_dense(
        summary,
        plain_rc_kernel(summary, assignment),
        label or f"plain_rc[{assignment}]",
    )
