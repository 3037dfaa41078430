"""Horvitz–Thompson adjusted weights for Poisson sketches.

For Poisson-τ sampling the inclusion probability of key ``i`` is exactly
``F_{w(i)}(τ)`` and is computable from the sketch, so the classic HT
estimator applies directly: ``a(i) = w(i) / F_{w(i)}(τ)`` (Section 3).
HT adjusted weights minimize ``VAR[a(i)]`` per key for the given sampling
distribution, and with IPPS ranks the whole design minimizes the sum of
per-key variances at a given expected size.

:func:`ht_kernel` uses only the keys that are members of one assignment's
sketch — the baseline the inclusive estimators improve upon.
"""

from __future__ import annotations

import numpy as np

from repro.core.summary import MultiAssignmentSummary
from repro.estimators.base import single_sketch_dense

__all__ = ["ht_kernel"]


def ht_kernel(summary: MultiAssignmentSummary, assignment: str) -> np.ndarray:
    """Dense HT adjusted weights ``w(i)/F_{w(i)}(τ)`` over union rows.

    >>> import numpy as np
    >>> from repro.core.summary import build_poisson_summary
    >>> from repro.ranks import IppsRanks, SharedSeedRanks
    >>> from repro.ranks.assignments import RankDraw
    >>> draw = RankDraw(np.array([[0.01], [0.5]]), None, SharedSeedRanks())
    >>> summary = build_poisson_summary(np.array([[4.0], [1.0]]), draw,
    ...                                 np.array([0.1]), ["b"], IppsRanks())
    >>> ht_kernel(summary, "b").tolist()
    [10.0]
    """
    if summary.kind != "poisson":
        raise ValueError("ht_kernel requires a Poisson summary")
    return single_sketch_dense(summary, assignment)
