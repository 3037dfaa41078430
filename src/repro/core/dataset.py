"""Weighted sets and multi-assignment datasets.

The paper models data as a set of keys ``I`` and a set ``W`` of weight
assignments, each mapping keys to non-negative scalars (Section 4).  We
store the data densely as an ``(n_keys, n_assignments)`` float matrix plus
parallel key identifiers and optional per-key attributes (used by selection
predicates, e.g. the destination port of an IP flow).

Zero entries mean "key absent from this assignment" — exactly how the paper
treats e.g. a destIP that received no traffic in some hour.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = ["WeightedSet", "MultiAssignmentDataset"]


class WeightedSet:
    """A single weight assignment over a set of keys (``(I, w)`` in the paper).

    >>> ws = WeightedSet(["a", "b"], [2.0, 3.0])
    >>> ws.total
    5.0
    >>> ws["b"]
    3.0
    """

    __slots__ = ("keys", "weights", "_index")

    def __init__(self, keys: Sequence[Hashable], weights: Sequence[float]) -> None:
        if len(keys) != len(weights):
            raise ValueError("keys and weights must have equal length")
        self.keys = list(keys)
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be non-negative")
        self._index = {key: pos for pos, key in enumerate(self.keys)}
        if len(self._index) != len(self.keys):
            raise ValueError("keys must be distinct")

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[tuple[Hashable, float]]:
        return zip(self.keys, self.weights)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    def __getitem__(self, key: Hashable) -> float:
        return float(self.weights[self._index[key]])

    @property
    def total(self) -> float:
        """Total weight ``w(I)``."""
        return float(self.weights.sum())

    def subset_weight(self, keys: Iterable[Hashable]) -> float:
        """Exact weight ``w(J)`` of a subpopulation given by explicit keys."""
        index = self._index
        return float(sum(self.weights[index[k]] for k in keys if k in index))

    def __repr__(self) -> str:
        return f"WeightedSet(n={len(self)}, total={self.total:g})"


class MultiAssignmentDataset:
    """Keys with a weight vector per key (``(I, W)`` in the paper).

    Parameters
    ----------
    keys:
        distinct hashable key identifiers (flow 4-tuples, movie ids, ...).
    assignments:
        names of the weight assignments (e.g. ``["bytes", "packets"]`` or
        ``["hour1", "hour2"]``).
    weights:
        dense ``(len(keys), len(assignments))`` matrix of non-negative
        weights.
    attributes:
        optional per-key attribute mapping used by selection predicates;
        ``attributes[name]`` is a sequence aligned with ``keys``.

    >>> ds = MultiAssignmentDataset(
    ...     keys=["i1", "i2"],
    ...     assignments=["w1", "w2"],
    ...     weights=[[15.0, 20.0], [0.0, 10.0]],
    ... )
    >>> ds.total("w2")
    30.0
    """

    def __init__(
        self,
        keys: Sequence[Hashable],
        assignments: Sequence[str],
        weights: Sequence[Sequence[float]] | np.ndarray,
        attributes: Mapping[str, Sequence] | None = None,
    ) -> None:
        self.keys = list(keys)
        self.assignments = list(assignments)
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.shape != (len(self.keys), len(self.assignments)):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match "
                f"({len(self.keys)} keys, {len(self.assignments)} assignments)"
            )
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be non-negative")
        if np.any(~np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        self._key_index = {key: pos for pos, key in enumerate(self.keys)}
        if len(self._key_index) != len(self.keys):
            raise ValueError("keys must be distinct")
        self._assignment_index = {
            name: pos for pos, name in enumerate(self.assignments)
        }
        if len(self._assignment_index) != len(self.assignments):
            raise ValueError("assignment names must be distinct")
        self.attributes: dict[str, list] = {}
        if attributes:
            for name, values in attributes.items():
                values = list(values)
                if len(values) != len(self.keys):
                    raise ValueError(
                        f"attribute {name!r} has {len(values)} values for "
                        f"{len(self.keys)} keys"
                    )
                self.attributes[name] = values

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Mapping[Hashable, Mapping[str, float]],
        assignments: Sequence[str] | None = None,
    ) -> "MultiAssignmentDataset":
        """Build a dataset from ``{key: {assignment: weight}}`` records.

        Missing entries become zero weights.

        >>> ds = MultiAssignmentDataset.from_records(
        ...     {"a": {"w1": 2.0}, "b": {"w1": 1.0, "w2": 4.0}}
        ... )
        >>> ds.weight("a", "w2")
        0.0
        """
        keys = list(records)
        if assignments is None:
            seen: dict[str, None] = {}
            for row in records.values():
                for name in row:
                    seen.setdefault(name)
            assignments = list(seen)
        matrix = np.zeros((len(keys), len(assignments)), dtype=float)
        col = {name: j for j, name in enumerate(assignments)}
        for i, key in enumerate(keys):
            for name, value in records[key].items():
                if name in col:
                    matrix[i, col[name]] = float(value)
        return cls(keys, list(assignments), matrix)

    @classmethod
    def from_weighted_sets(
        cls, sets: Mapping[str, WeightedSet]
    ) -> "MultiAssignmentDataset":
        """Collate per-assignment :class:`WeightedSet` objects into one dataset.

        This mirrors what an offline analysis would do with the *full* data;
        the dispersed sampling path never needs the collated form.
        """
        assignments = list(sets)
        keys_index: dict[Hashable, int] = {}
        for ws in sets.values():
            for key in ws.keys:
                if key not in keys_index:
                    keys_index[key] = len(keys_index)
        key_list = list(keys_index)
        matrix = np.zeros((len(key_list), len(assignments)), dtype=float)
        for j, name in enumerate(assignments):
            for key, weight in sets[name]:
                matrix[keys_index[key], j] = weight
        return cls(key_list, assignments, matrix)

    # -- basic accessors -------------------------------------------------------

    @property
    def n_keys(self) -> int:
        return len(self.keys)

    @property
    def n_assignments(self) -> int:
        return len(self.assignments)

    @property
    def key_index(self) -> Mapping[Hashable, int]:
        """Key → row mapping (read-only by convention, do not mutate)."""
        return self._key_index

    def key_position(self, key: Hashable) -> int:
        """Row index of ``key`` (raises ``KeyError`` if absent)."""
        return self._key_index[key]

    def assignment_position(self, name: str) -> int:
        """Column index of assignment ``name`` (raises ``KeyError`` if absent)."""
        return self._assignment_index[name]

    def assignment_positions(self, names: Sequence[str] | None = None) -> list[int]:
        """Column indices for a list of assignment names (all if ``None``)."""
        if names is None:
            return list(range(self.n_assignments))
        return [self._assignment_index[name] for name in names]

    def weight(self, key: Hashable, assignment: str) -> float:
        """Scalar weight ``w^(assignment)(key)``."""
        return float(
            self.weights[self._key_index[key], self._assignment_index[assignment]]
        )

    def weight_vector(self, key: Hashable) -> np.ndarray:
        """Full weight vector ``w^(W)(key)`` (copy)."""
        return self.weights[self._key_index[key]].copy()

    def column(self, assignment: str) -> np.ndarray:
        """Weight column of one assignment (view, do not mutate)."""
        return self.weights[:, self._assignment_index[assignment]]

    def total(self, assignment: str) -> float:
        """Total weight of one assignment, ``Σ_i w^(b)(i)``."""
        return float(self.column(assignment).sum())

    def support_size(self, assignment: str) -> int:
        """Number of keys with strictly positive weight in one assignment."""
        return int(np.count_nonzero(self.column(assignment) > 0.0))

    def weighted_set(self, assignment: str) -> WeightedSet:
        """Extract one assignment as a standalone :class:`WeightedSet`.

        Only keys with positive weight are included, which is what a
        dispersed-weights process for that assignment would observe.
        """
        col = self.column(assignment)
        mask = col > 0.0
        keys = [key for key, keep in zip(self.keys, mask) if keep]
        return WeightedSet(keys, col[mask])

    def restrict(self, assignments: Sequence[str]) -> "MultiAssignmentDataset":
        """Dataset restricted to a subset ``R`` of the assignments."""
        cols = self.assignment_positions(assignments)
        return MultiAssignmentDataset(
            self.keys,
            [self.assignments[c] for c in cols],
            self.weights[:, cols].copy(),
            attributes=self.attributes,
        )

    def attribute(self, name: str) -> list:
        """Per-key attribute values aligned with :attr:`keys`."""
        return self.attributes[name]

    def __repr__(self) -> str:
        return (
            f"MultiAssignmentDataset(n_keys={self.n_keys}, "
            f"assignments={self.assignments!r})"
        )
