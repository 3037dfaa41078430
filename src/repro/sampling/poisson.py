"""Poisson-τ sampling.

A Poisson-τ sample keeps every key whose rank falls below the fixed
threshold τ (Section 3).  Inclusions of different keys are independent and
the expected sample size is ``Σ_i F_{w(i)}(τ)``; :func:`calibrate_tau`
inverts that relation to hit a desired expected size, which is how the
paper parameterizes Poisson sketches ("expected size k").

With IPPS ranks, Poisson-τ sampling is IPPS sampling (inclusion probability
proportional to size, capped at 1), the design that minimizes the sum of
per-key variances of the HT estimator at a given expected size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterator

import numpy as np

from repro.ranks.families import RankFamily

__all__ = [
    "PoissonSketch",
    "poisson_from_ranks",
    "poisson_sketch_matrix",
    "calibrate_tau",
]

_INF = math.inf


@dataclass
class PoissonSketch:
    """A Poisson-τ sketch of one weight assignment.

    ``keys``/``ranks``/``weights`` hold the sampled keys in rank order;
    ``tau`` is the fixed threshold the sample was taken with.
    """

    tau: float
    keys: np.ndarray
    ranks: np.ndarray
    weights: np.ndarray
    seeds: np.ndarray | None = None
    _members: set = field(default=None, repr=False)  # type: ignore[assignment]

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: Hashable) -> bool:
        if self._members is None:  # built on the first lookup
            self._members = set(self.keys.tolist())
        return key in self._members

    def items(self) -> Iterator[tuple[Hashable, float, float]]:
        """Iterate ``(key, rank, weight)`` triples in rank order."""
        return zip(self.keys.tolist(), self.ranks, self.weights)

    def merge(self, *others: "PoissonSketch") -> "PoissonSketch":
        """Exact merge with same-τ sketches over key-disjoint partitions.

        Convenience wrapper around :func:`repro.engine.merge_poisson`.
        """
        from repro.engine.merge import merge_poisson

        return merge_poisson(self, *others)

    def copy(self) -> "PoissonSketch":
        """Deep copy: arrays and membership set are not shared."""
        return PoissonSketch(
            tau=self.tau,
            keys=self.keys.copy(),
            ranks=self.ranks.copy(),
            weights=self.weights.copy(),
            seeds=None if self.seeds is None else self.seeds.copy(),
        )

    def scaled(self, factor: float) -> "PoissonSketch":
        """The sketch of the same data with every weight scaled by ``factor``.

        Same rank/weight transform as :meth:`BottomKSketch.scaled` —
        scaling a weight by ``c`` divides its rank by ``c`` exactly for
        EXP and IPPS ranks — plus ``tau ÷ c``: ``rank < tau`` holds before
        the transform iff ``rank/c < tau/c`` holds after, so membership is
        preserved and the result is a valid Poisson-``tau/c`` sketch of
        the scaled assignment.
        """
        factor = float(factor)
        if not (math.isfinite(factor) and factor > 0.0):
            raise ValueError(f"scale factor must be finite and > 0, got {factor!r}")
        return PoissonSketch(
            tau=self.tau / factor,
            keys=self.keys.copy(),
            ranks=self.ranks / factor,
            weights=self.weights * factor,
            seeds=None if self.seeds is None else self.seeds.copy(),
        )

    def equals(self, other: "PoissonSketch") -> bool:
        """Bit-exact equality (see :meth:`BottomKSketch.equals`)."""
        from repro.sampling.bottomk import _array_bits_equal, _float_bits_equal

        if not isinstance(other, PoissonSketch):
            return False
        if len(self) != len(other):
            return False
        if not _float_bits_equal(self.tau, other.tau):
            return False
        if (self.seeds is None) != (other.seeds is None):
            return False
        if self.keys.tolist() != other.keys.tolist():
            return False
        if not _array_bits_equal(self.ranks, other.ranks):
            return False
        if not _array_bits_equal(self.weights, other.weights):
            return False
        if self.seeds is not None and not _array_bits_equal(
            self.seeds, other.seeds
        ):
            return False
        return True


def poisson_from_ranks(
    ranks: np.ndarray,
    weights: np.ndarray,
    tau: float,
    seeds: np.ndarray | None = None,
) -> PoissonSketch:
    """Build a Poisson-τ sketch from a full rank column.

    >>> sk = poisson_from_ranks(np.array([0.05, 0.4]),
    ...                         np.array([3.0, 1.0]), tau=0.1)
    >>> sk.keys.tolist()
    [0]
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    mask = ranks < tau
    positions = np.flatnonzero(mask)
    order = positions[np.argsort(ranks[positions], kind="stable")]
    sample_seeds = seeds[order].copy() if seeds is not None else None
    return PoissonSketch(
        tau=tau,
        keys=order.astype(np.int64),
        ranks=ranks[order].copy(),
        weights=weights[order].copy(),
        seeds=sample_seeds,
    )


def poisson_sketch_matrix(
    ranks: np.ndarray,
    weights: np.ndarray,
    taus: np.ndarray,
    seeds: np.ndarray | None = None,
) -> list[PoissonSketch]:
    """Poisson sketches for every column of an ``(n, m)`` rank matrix.

    ``taus`` gives one threshold per assignment (they generally differ,
    because each is calibrated against its own weight column).
    """
    n, m = ranks.shape
    taus = np.asarray(taus, dtype=float)
    if taus.shape != (m,):
        raise ValueError(f"need one tau per assignment, got shape {taus.shape}")
    out = []
    for b in range(m):
        if seeds is None:
            col_seeds = None
        elif seeds.ndim == 1:
            col_seeds = seeds
        else:
            col_seeds = seeds[:, b]
        out.append(poisson_from_ranks(ranks[:, b], weights[:, b], taus[b], col_seeds))
    return out


def calibrate_tau(
    weights: np.ndarray,
    family: RankFamily,
    expected_size: float,
    tolerance: float = 1e-9,
    max_iterations: int = 200,
) -> float:
    """Solve ``Σ_i F_{w(i)}(τ) = expected_size`` for τ by bisection.

    The left side is continuous and non-decreasing in τ for both EXP and
    IPPS ranks, so bisection converges; when ``expected_size`` is at least
    the number of positive-weight keys, every such key should always be
    sampled and ``+inf`` is returned.

    >>> from repro.ranks import IppsRanks
    >>> w = np.array([20.0, 10.0, 12.0, 20.0, 10.0, 10.0])
    >>> round(calibrate_tau(w, IppsRanks(), 1.0), 6)  # paper Figure 1: 1/82
    0.012195
    """
    weights = np.asarray(weights, dtype=float)
    positive = weights[weights > 0.0]
    if expected_size <= 0.0:
        raise ValueError(f"expected_size must be positive, got {expected_size}")
    if expected_size >= len(positive):
        return _INF

    def size_at(tau: float) -> float:
        return float(family.cdf_array(positive, tau).sum())

    lo = 0.0
    hi = 1.0 / float(positive.max())
    while size_at(hi) < expected_size:
        hi *= 2.0
        if hi > 1e308:
            return _INF
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        if size_at(mid) < expected_size:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tolerance * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)
