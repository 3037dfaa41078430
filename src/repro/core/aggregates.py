"""Key-wise aggregation functions and exact ground-truth aggregation.

The queries of interest are sums ``Σ_{i : d(i)=1} f(i)`` where ``f`` is a
numeric function of the weight vector restricted to a subset ``R`` of the
assignments (Section 4, Eq. (1)–(2)):

* ``w^(b)(i)``          — single assignment (weighted sum / selectivity);
* ``w^(max R)(i)``      — max-dominance norm contribution;
* ``w^(min R)(i)``      — min-dominance norm contribution;
* ``w^(L1 R)(i) = w^(max R)(i) − w^(min R)(i)`` — range / L1 difference;
* ``w^(ℓth-largest R)(i)`` — quantiles over assignments (top-ℓ dependence).

The weighted Jaccard similarity of two assignments over ``J`` is the ratio
``Σ_J w^min / Σ_J w^max``.

Everything here operates on the *full* dataset and is used both for exact
query answering (small data) and as ground truth when measuring estimator
variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.dataset import MultiAssignmentDataset
from repro.core.predicates import Predicate, all_keys

__all__ = [
    "single_weights",
    "min_weights",
    "max_weights",
    "range_weights",
    "lth_largest_weights",
    "key_values",
    "AggregationSpec",
    "FUNCTIONS",
    "exact_aggregate",
    "jaccard_similarity",
]


def _columns(
    dataset: MultiAssignmentDataset, assignments: Sequence[str] | None
) -> np.ndarray:
    cols = dataset.assignment_positions(assignments)
    return dataset.weights[:, cols]


def single_weights(dataset: MultiAssignmentDataset, assignment: str) -> np.ndarray:
    """Per-key values of a single assignment, ``f(i) = w^(b)(i)``."""
    return dataset.column(assignment).copy()


def min_weights(
    dataset: MultiAssignmentDataset, assignments: Sequence[str] | None = None
) -> np.ndarray:
    """Per-key minimum over ``R``, ``f(i) = w^(min R)(i)`` (Eq. (1))."""
    return _columns(dataset, assignments).min(axis=1)


def max_weights(
    dataset: MultiAssignmentDataset, assignments: Sequence[str] | None = None
) -> np.ndarray:
    """Per-key maximum over ``R``, ``f(i) = w^(max R)(i)`` (Eq. (1))."""
    return _columns(dataset, assignments).max(axis=1)


def range_weights(
    dataset: MultiAssignmentDataset, assignments: Sequence[str] | None = None
) -> np.ndarray:
    """Per-key range over ``R``, ``f(i) = w^(L1 R)(i)`` (Eq. (2)).

    For ``|R| = 2`` this is the key-wise L1 difference.
    """
    block = _columns(dataset, assignments)
    return block.max(axis=1) - block.min(axis=1)


def lth_largest_weights(
    dataset: MultiAssignmentDataset,
    ell: int,
    assignments: Sequence[str] | None = None,
) -> np.ndarray:
    """Per-key ℓ-th largest weight over ``R`` (1-indexed; ℓ=1 is the max).

    ``f(i) = w^(ℓth-largest R)(i)`` — the quantile aggregations of
    Definition 7.1 (ℓ = 1 is max-dependence, ℓ = |R| is min-dependence).
    """
    block = _columns(dataset, assignments)
    if not 1 <= ell <= block.shape[1]:
        raise ValueError(
            f"ell must be between 1 and |R|={block.shape[1]}, got {ell}"
        )
    # Sort descending along assignments and pick column ℓ-1.
    return -np.sort(-block, axis=1)[:, ell - 1]


#: the aggregate functions an :class:`AggregationSpec` (and a query) names
FUNCTIONS = ("single", "min", "max", "l1", "lth_largest")

#: Builders for the named aggregate functions; signature (dataset, R) -> values.
_FUNCTION_BUILDERS: dict[str, Callable[..., np.ndarray]] = {
    "min": min_weights,
    "max": max_weights,
    "l1": range_weights,
}


@dataclass(frozen=True)
class AggregationSpec:
    """Declarative description of a sum-aggregate query.

    Attributes
    ----------
    function:
        one of ``"single"``, ``"min"``, ``"max"``, ``"l1"``,
        ``"lth_largest"``.
    assignments:
        the relevant assignments ``R`` (for ``"single"``, exactly one).
    ell:
        required when ``function == "lth_largest"``; 1-indexed from the
        top, so ``1 <= ell <= |R|``.
    predicate:
        selection predicate ``d``; default selects every key.

    >>> spec = AggregationSpec("l1", ("hour1", "hour2"))
    >>> spec.function
    'l1'
    """

    function: str
    assignments: tuple[str, ...]
    ell: int | None = None
    predicate: Predicate = field(default_factory=all_keys)

    def __post_init__(self) -> None:
        if self.function not in FUNCTIONS:
            raise ValueError(
                f"unknown aggregate function {self.function!r}; known: "
                f"{sorted(FUNCTIONS)}"
            )
        if self.function == "single" and len(self.assignments) != 1:
            raise ValueError("'single' aggregates take exactly one assignment")
        if not self.assignments:
            raise ValueError("assignments must be non-empty")
        if len(set(self.assignments)) != len(self.assignments):
            # a repeated name would enter an inclusion probability twice
            raise ValueError(
                f"duplicate assignment names in {tuple(self.assignments)!r}; "
                "an aggregate is defined over distinct assignments"
            )
        if self.function == "lth_largest":
            if self.ell is None:
                raise ValueError("'lth_largest' aggregates require ell")
            if not 1 <= self.ell <= len(self.assignments):
                raise ValueError(
                    f"ell must be between 1 and |R|={len(self.assignments)}, "
                    f"got {self.ell}"
                )

    @property
    def dependence_ell(self) -> int:
        """The top-ℓ dependence level of this aggregate (Definition 7.1).

        max is top-1 dependent, min is top-|R| dependent, ℓ-th largest is
        top-ℓ dependent.  ``single`` behaves as top-1 over its singleton R.
        L1 is *not* top-ℓ dependent for any ℓ; it is estimated as
        ``a^max − a^min`` (Section 7.3), so callers must not ask for its
        dependence level.
        """
        if self.function in ("max", "single"):
            return 1
        if self.function == "min":
            return len(self.assignments)
        if self.function == "lth_largest":
            assert self.ell is not None
            return self.ell
        raise ValueError(f"{self.function!r} is not a top-ℓ dependent aggregate")


def key_values(dataset: MultiAssignmentDataset, spec: AggregationSpec) -> np.ndarray:
    """Per-key values ``f(i)`` of an aggregate over the full dataset."""
    if spec.function == "single":
        return single_weights(dataset, spec.assignments[0])
    if spec.function == "lth_largest":
        assert spec.ell is not None
        return lth_largest_weights(dataset, spec.ell, list(spec.assignments))
    builder = _FUNCTION_BUILDERS[spec.function]
    return builder(dataset, list(spec.assignments))


def exact_aggregate(
    dataset: MultiAssignmentDataset, spec: AggregationSpec
) -> float:
    """Exact value of ``Σ_{i : d(i)=1} f(i)`` — the ground truth.

    >>> ds = MultiAssignmentDataset(["a", "b"], ["x", "y"],
    ...                             [[1.0, 3.0], [5.0, 2.0]])
    >>> exact_aggregate(ds, AggregationSpec("l1", ("x", "y")))
    5.0
    """
    values = key_values(dataset, spec)
    mask = spec.predicate.mask(dataset)
    return float(values[mask].sum())


def jaccard_similarity(
    dataset: MultiAssignmentDataset,
    assignment_a: str,
    assignment_b: str,
    predicate: Predicate | None = None,
) -> float:
    """Exact weighted Jaccard similarity ``Σ_J w^min / Σ_J w^max``.

    Returns 0.0 when both assignments are identically zero on ``J``.
    """
    pair = (assignment_a, assignment_b)
    pred = predicate if predicate is not None else all_keys()
    mask = pred.mask(dataset)
    numer = float(min_weights(dataset, list(pair))[mask].sum())
    denom = float(max_weights(dataset, list(pair))[mask].sum())
    if denom == 0.0:
        return 0.0
    return numer / denom
