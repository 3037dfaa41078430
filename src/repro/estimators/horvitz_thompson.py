"""Horvitz–Thompson adjusted weights for Poisson sketches.

For Poisson-τ sampling the inclusion probability of key ``i`` is exactly
``F_{w(i)}(τ)`` and is computable from the sketch, so the classic HT
estimator applies directly: ``a(i) = w(i) / F_{w(i)}(τ)`` (Section 3).
HT adjusted weights minimize ``VAR[a(i)]`` per key for the given sampling
distribution, and with IPPS ranks the whole design minimizes the sum of
per-key variances at a given expected size.
"""

from __future__ import annotations

import numpy as np

from repro.core.summary import MultiAssignmentSummary
from repro.estimators.base import AdjustedWeights, single_sketch_dense
from repro.ranks.families import RankFamily
from repro.sampling.poisson import PoissonSketch

__all__ = ["ht_adjusted_weights", "ht_from_summary", "ht_kernel"]


def ht_adjusted_weights(
    sketch: PoissonSketch, family: RankFamily, label: str = "ht"
) -> AdjustedWeights:
    """HT adjusted weights ``w(i)/F_{w(i)}(τ)`` for one Poisson sketch.

    >>> import numpy as np
    >>> from repro.ranks import IppsRanks
    >>> from repro.sampling import poisson_from_ranks
    >>> sk = poisson_from_ranks(np.array([0.01, 0.5]),
    ...                         np.array([4.0, 1.0]), tau=0.1)
    >>> ht_adjusted_weights(sk, IppsRanks()).values.tolist()
    [10.0]
    """
    probabilities = family.cdf_array(sketch.weights, sketch.tau)
    values = np.divide(
        sketch.weights,
        probabilities,
        out=np.zeros_like(sketch.weights),
        where=probabilities > 0.0,
    )
    return AdjustedWeights(sketch.keys.astype(np.int64), values, label)


def ht_kernel(summary: MultiAssignmentSummary, assignment: str) -> np.ndarray:
    """Dense HT adjusted weights ``w(i)/F_{w(i)}(τ)`` over union rows."""
    if summary.kind != "poisson":
        raise ValueError("ht_kernel requires a Poisson summary")
    return single_sketch_dense(summary, assignment)


def ht_from_summary(
    summary: MultiAssignmentSummary, assignment: str, label: str = ""
) -> AdjustedWeights:
    """Plain HT estimator for one assignment embedded in a Poisson summary.

    Uses only the keys that are members of that assignment's sketch —
    the baseline the inclusive estimators improve upon.
    """
    return AdjustedWeights.from_dense(
        summary, ht_kernel(summary, assignment), label or f"ht[{assignment}]"
    )
