"""Adjusted-weight summaries (AW-summaries) and subpopulation queries.

An AW-summary assigns an adjusted weight ``a(i) >= 0`` to each sampled key
with ``E[a(i)] = f(i)`` (keys outside the sample implicitly get 0), so the
unbiased estimate of ``Σ_{i ∈ J} f(i)`` is simply the sum of adjusted
weights over sampled keys in ``J`` (Section 3, "Adjusted weights").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.core.summary import MultiAssignmentSummary

__all__ = ["AdjustedWeights", "single_sketch_dense"]


@dataclass
class AdjustedWeights:
    """Per-key adjusted ``f``-weights over dataset positions.

    Attributes
    ----------
    positions:
        dataset positions that carry (possibly zero) adjusted weight.
    values:
        adjusted weights aligned with ``positions``; non-negative.
    label:
        human-readable estimator tag (used in reports).
    """

    positions: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if self.positions.shape != self.values.shape:
            raise ValueError("positions and values must have equal length")

    @classmethod
    def from_dense(
        cls, summary: MultiAssignmentSummary, dense: np.ndarray, label: str = ""
    ) -> AdjustedWeights:
        """Sparse adjusted weights from a dense kernel output over union rows.

        Rows with zero adjusted weight are dropped: they contribute nothing
        to any query.
        """
        rows = np.flatnonzero(dense)
        return cls(summary.positions[rows], dense[rows], label)

    def __len__(self) -> int:
        return len(self.positions)

    def total(self) -> float:
        """Estimate of the full-population aggregate ``Σ_i f(i)``."""
        return float(self.values.sum())

    def subpopulation(self, mask: np.ndarray) -> float:
        """Estimate of ``Σ_{i ∈ J} f(i)`` given a dense mask over all keys.

        The mask is the materialization of a selection predicate ``d``; it
        is only ever *read* at the sampled positions, matching the fact
        that a real summary evaluates ``d`` on sampled keys only.
        """
        mask = np.asarray(mask, dtype=bool)
        return float(self.values[mask[self.positions]].sum())

    def dense(self, n_keys: int) -> np.ndarray:
        """Dense adjusted-weight vector over all keys (zeros off-sample)."""
        out = np.zeros(n_keys, dtype=float)
        out[self.positions] = self.values
        return out

    def ratio_estimate(self, mask: np.ndarray, h_over_f: np.ndarray) -> float:
        """Estimate ``Σ_{i ∈ J} h(i)`` via ``Σ a(i) h(i)/f(i)``.

        ``h_over_f`` is the dense vector of ``h(i)/f(i)`` (the standard
        secondary-function device; requires ``h(i) > 0 ⇒ f(i) > 0``).
        """
        mask = np.asarray(mask, dtype=bool)
        keep = mask[self.positions]
        return float(
            (self.values[keep] * h_over_f[self.positions[keep]]).sum()
        )

    def squared_error_sum(self, f_values: np.ndarray) -> float:
        """``Σ_i (a(i) − f(i))²`` against dense ground-truth values.

        Computed without enumerating unsampled keys:
        ``Σ_{i∈S}((a−f)² − f²) + Σ_i f²``.
        """
        f_values = np.asarray(f_values, dtype=float)
        f_at = f_values[self.positions]
        on_sample = float(((self.values - f_at) ** 2 - f_at**2).sum())
        return on_sample + float((f_values**2).sum())


def single_sketch_dense(
    summary: MultiAssignmentSummary, assignment: str
) -> np.ndarray:
    """Dense ``w(i)/F_{w(i)}(θ_ib)`` over the members of one sketch (Section 3).

    ``θ_ib`` is ``r^(b)_{k+1}(I)`` for members of a bottom-k sketch (plain
    RC) and ``τ^(b)`` for a Poisson sketch (HT); either way it is the
    member cell of the shared ``F_w(θ)`` view, of which only column b is
    computed.
    """
    b = summary.columns([assignment])[0]
    member = summary.member[:, b]
    probabilities = summary.views().cdf_column(b)
    weights = np.where(member, summary.weights[:, b], 0.0)
    return np.divide(
        weights,
        probabilities,
        out=np.zeros_like(weights),
        where=(probabilities > 0.0) & member,
    )
