"""Selection predicates over keys.

A predicate ``d`` selects the subpopulation a query aggregates over.  The
whole point of sample-based summaries is that ``d`` can be specified *after*
the summary was built, as long as it can be evaluated on the information the
summary carries per key (the key identifier and its stored attributes).

Predicates are evaluated in two ways:

* :meth:`Predicate.mask` — dense boolean mask over a full dataset (ground
  truth / exact answers);
* :meth:`Predicate.select` — per-key decision given the key and its
  attributes (what an estimator applies to sampled keys).

:class:`KeyIn` never loops over the keys it is evaluated on: it looks its
own keys up in a key → row index (the dataset's, or a stream summary's
:attr:`~repro.core.summary.MultiAssignmentSummary.key_index`), so a key
predicate costs O(|keys|) however large the dataset or the summary is.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Collection, Hashable, Mapping

import numpy as np

from repro.core.dataset import MultiAssignmentDataset

__all__ = [
    "Predicate",
    "AllKeys",
    "KeyIn",
    "AttributeEquals",
    "AttributePredicate",
    "all_keys",
    "key_in",
    "attribute_equals",
    "attribute_predicate",
]


class Predicate(ABC):
    """A selection predicate ``d`` over keys."""

    @abstractmethod
    def select(self, key: Hashable, attributes: Mapping[str, object]) -> bool:
        """Decide a single key given its identifier and attribute values."""

    def mask(self, dataset: MultiAssignmentDataset) -> np.ndarray:
        """Boolean mask over ``dataset.keys`` (default: per-key loop)."""
        return self.mask_at(dataset, np.arange(dataset.n_keys))

    def mask_at(
        self, dataset: MultiAssignmentDataset, positions: np.ndarray
    ) -> np.ndarray:
        """Evaluate the predicate at explicit dataset ``positions`` only.

        This is the *pushdown* entry point used by the batch
        :class:`~repro.engine.queries.QueryEngine`: a summary holds far
        fewer keys than the dataset, so predicates are evaluated on the
        summary's union positions instead of all ``n`` keys.  Subclasses
        with vectorizable semantics override this; the default loops over
        the given positions only.
        """
        positions = np.asarray(positions, dtype=np.int64)
        names = list(dataset.attributes)
        columns = [dataset.attributes[name] for name in names]
        out = np.empty(len(positions), dtype=bool)
        for row, pos in enumerate(positions.tolist()):
            attrs = {name: column[pos] for name, column in zip(names, columns)}
            out[row] = self.select(dataset.keys[pos], attrs)
        return out


class AllKeys(Predicate):
    """The trivial predicate: every key is selected."""

    def select(self, key: Hashable, attributes: Mapping[str, object]) -> bool:
        return True

    def mask(self, dataset: MultiAssignmentDataset) -> np.ndarray:
        return np.ones(dataset.n_keys, dtype=bool)

    def mask_at(
        self, dataset: MultiAssignmentDataset, positions: np.ndarray
    ) -> np.ndarray:
        return np.ones(len(positions), dtype=bool)

    def __repr__(self) -> str:
        return "AllKeys()"


class KeyIn(Predicate):
    """Select keys belonging to an explicit collection.

    >>> KeyIn({"a", "b"}).select("a", {})
    True
    """

    def __init__(self, keys: Collection[Hashable]) -> None:
        self.keys = frozenset(keys)

    def select(self, key: Hashable, attributes: Mapping[str, object]) -> bool:
        return key in self.keys

    def rows_in(self, index: Mapping[Hashable, int]) -> np.ndarray:
        """Rows of the selected keys present in a key → row ``index``."""
        rows = [row for row in map(index.get, self.keys) if row is not None]
        return np.array(rows, dtype=np.int64)

    def mask_at(
        self, dataset: MultiAssignmentDataset, positions: np.ndarray
    ) -> np.ndarray:
        return np.isin(
            np.asarray(positions, dtype=np.int64),
            self.rows_in(dataset.key_index),
        )

    def __repr__(self) -> str:
        return f"KeyIn(n={len(self.keys)})"


class AttributeEquals(Predicate):
    """Select keys whose stored attribute equals a constant.

    Typical use: flows to a given destination AS, movies of a given genre.
    """

    def __init__(self, attribute: str, value: object) -> None:
        self.attribute = attribute
        self.value = value

    def select(self, key: Hashable, attributes: Mapping[str, object]) -> bool:
        return attributes.get(self.attribute) == self.value

    def mask_at(
        self, dataset: MultiAssignmentDataset, positions: np.ndarray
    ) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.int64)
        column = dataset.attributes.get(self.attribute)
        if column is None:
            # match select(): a missing attribute reads as None per key
            return np.full(len(positions), bool(None == self.value),  # noqa: E711
                           dtype=bool)
        value = self.value
        return np.fromiter(
            (column[pos] == value for pos in positions.tolist()),
            dtype=bool,
            count=len(positions),
        )

    def __repr__(self) -> str:
        return f"AttributeEquals({self.attribute!r}, {self.value!r})"


class AttributePredicate(Predicate):
    """Select keys by an arbitrary function of (key, attributes).

    The function must depend only on information the summary stores per key
    (identifier + attributes), never on weights of *other* keys.
    """

    def __init__(
        self, fn: Callable[[Hashable, Mapping[str, object]], bool], label: str = ""
    ) -> None:
        self.fn = fn
        self.label = label or getattr(fn, "__name__", "lambda")

    def select(self, key: Hashable, attributes: Mapping[str, object]) -> bool:
        return bool(self.fn(key, attributes))

    def __repr__(self) -> str:
        return f"AttributePredicate({self.label})"


def all_keys() -> AllKeys:
    """The trivial predicate selecting every key."""
    return AllKeys()


def key_in(keys: Collection[Hashable]) -> KeyIn:
    """Predicate selecting an explicit key collection."""
    return KeyIn(keys)


def attribute_equals(attribute: str, value: object) -> AttributeEquals:
    """Predicate selecting keys with ``attributes[attribute] == value``."""
    return AttributeEquals(attribute, value)


def attribute_predicate(
    fn: Callable[[Hashable, Mapping[str, object]], bool], label: str = ""
) -> AttributePredicate:
    """Predicate from an arbitrary (key, attributes) -> bool function."""
    return AttributePredicate(fn, label)
