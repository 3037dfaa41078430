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
member cells of the shared ``F_w(θ)`` view and uses only the keys of one
assignment's own bottom-k sketch (the ``a_p`` estimator of the evaluation,
Section 9.3).  The inclusive estimators of
:mod:`repro.estimators.colocated` dominate it by also exploiting keys
sampled for the other assignments (Lemma 8.2).
"""

from __future__ import annotations

import numpy as np

from repro.core.summary import MultiAssignmentSummary
from repro.estimators.base import single_sketch_dense

__all__ = ["plain_rc_kernel"]


def plain_rc_kernel(
    summary: MultiAssignmentSummary, assignment: str
) -> np.ndarray:
    """Dense plain-RC adjusted weights ``w(i)/F_{w(i)}(r_{k+1})`` over union rows.

    For members of b's sketch ``θ_ib`` *is* ``r^(b)_{k+1}(I)``.

    >>> import numpy as np
    >>> from repro.core.summary import build_bottomk_summary
    >>> from repro.ranks import IppsRanks, SharedSeedRanks
    >>> from repro.ranks.assignments import RankDraw
    >>> draw = RankDraw(np.array([[0.011], [0.075], [0.037]]), None,
    ...                 SharedSeedRanks())
    >>> summary = build_bottomk_summary(np.array([[20.0], [10.0], [10.0]]),
    ...                                 draw, 1, ["b"], IppsRanks())
    >>> [round(a, 2) for a in plain_rc_kernel(summary, "b").tolist()]
    [27.03]
    """
    if summary.kind != "bottomk":
        raise ValueError("plain_rc_kernel requires a bottom-k summary")
    return single_sketch_dense(summary, assignment)
