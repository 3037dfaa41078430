"""Batch-fed summarization of unaggregated streams.

:class:`ShardedSummarizer` is the engine front door: feed it raw
(key, weight) events — unaggregated, batched, in any order — for any
number of weight assignments, and it produces the paper's dispersed
:class:`~repro.core.summary.MultiAssignmentSummary` with no access to a
dense weight matrix.

Each assignment keeps one aggregated table; a batch is only queued as
*pending*.  The pipeline per assignment:

1. **fold** — at finalization an assignment that has pending events folds
   just those into its :class:`ShardState`: an aggregated table (unique
   keys + running per-key totals, the pre-aggregation bottom-k sampling
   requires) and the table's ``k + 1`` smallest-rank entries.  The pending
   events are aggregated (vectorized ``np.unique`` for numeric keys), each
   touched key's running sum is continued in arrival order from its stored
   total (``np.add.at``), and only the touched keys are re-ranked, with
   *one shared hasher* across all assignments (the dispersed-coordination
   device of Section 4).  A backlog larger than ``_FOLD_ROWS`` is folded
   in steps of at most that many rows, oldest chunks first, so a fold's
   transients are O(step), not O(backlog) — exact for the same reason
   the moment of finalization is invisible;
2. **select** — the new bottom-(k+1) is taken from *(old entries not
   touched) ∪ (touched keys)*.  This is exact: weights are non-negative
   and ranks are non-increasing in the weight at a fixed seed (see
   :class:`~repro.ranks.families.RankFamily`), so an untouched key outside
   the old ``k + 1`` can never enter the new one.  Folded events are
   dropped — the table *is* the buffer — so a query after new data sorts,
   hashes and ranks O(new events), and memory is O(distinct keys +
   pending events), not O(events).  A numeric table is a large sorted
   *base* plus a small sorted *delta* of the keys touched since the two
   were last merged: a fold looks its keys up in both (O(touched · log))
   and writes a new delta (O(delta + touched)), never copying the base
   until the delta outgrows ``_DELTA_SHARE`` of it.  The per-assignment
   sketches are assembled into the union summary with
   :func:`~repro.core.summary.build_summary_from_sketches`.

Every step is deterministic given the hasher salt — rank ties (a ~2⁻⁵³
event, except between keys that hash alike, such as a ``str`` and its
UTF-8 ``bytes``) are broken by key (where keys cannot be ordered, by
seed and then by :func:`~repro.ranks.hashing.tie_order`), never by
arrival — so two deployments that never communicate — different batch
boundaries, different event order, different moments of finalization —
produce the *same* summary for the same totals.  (Totals are float sums
in arrival order, so "the same totals" means the same per-key event
order.)  Distribution is a layer up: summarizers over key-disjoint
streams that share the hasher salt publish bundles that
:func:`~repro.engine.merge.merge_bottomk` (and a
:class:`~repro.store.SummaryStore`) combine exactly.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.summary import (
    MultiAssignmentSummary,
    build_summary_from_sketches,
)
from repro.ranks.families import IppsRanks, RankFamily
from repro.ranks.hashing import (
    KeyHasher,
    _object_array,
    as_key_array,
    tie_order,
)
from repro.sampling.bottomk import BottomKSketch

__all__ = ["ShardedSummarizer"]


def _smallest(
    ranks: np.ndarray, tiebreak: np.ndarray, limit: int, keys=None
) -> np.ndarray:
    """Indices of the ``limit`` smallest ``(rank, tiebreak)`` pairs, ascending.

    Ties at the cut are all kept for the final sort, so the selection is a
    function of the pairs alone, never of their order in the input.  Given
    the ``keys``, equal pairs are ordered by :func:`tie_order` of the key.
    """
    if len(ranks) > limit:
        cut = np.partition(ranks, limit - 1)[limit - 1]
        pool = np.flatnonzero(ranks <= cut)
    else:
        pool = np.arange(len(ranks))
    pool = pool[np.lexsort((tiebreak[pool], ranks[pool]))]
    if keys is not None and len(pool) > 1:
        tied = (ranks[pool[1:]] == ranks[pool[:-1]]) & (
            tiebreak[pool[1:]] == tiebreak[pool[:-1]]
        )
        if tied.any():
            pool = np.array(sorted(pool.tolist(), key=lambda at: (
                ranks[at], tiebreak[at], tie_order(keys[at])
            )))
    return pool[:limit]


_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_FLOATS = np.empty(0)


class ShardEntries(NamedTuple):
    """A table's ``k + 1`` positive-total keys of smallest rank, ascending.

    The k sample entries plus the key that sets the threshold.  Ties in
    rank are broken by key in a numeric table and by seed, then by
    :func:`~repro.ranks.hashing.tie_order`, in a generic one (whose keys
    need not be orderable).
    """

    keys: np.ndarray = _NO_KEYS
    ranks: np.ndarray = _NO_FLOATS
    weights: np.ndarray = _NO_FLOATS
    seeds: np.ndarray = _NO_FLOATS

    def sketch(self, k: int) -> BottomKSketch:
        """The table's bottom-k sketch, as a stream sampler would emit it."""
        held = len(self.ranks)
        return BottomKSketch(
            k=k,
            keys=self.keys[:k].astype(object),
            ranks=self.ranks[:k],
            weights=self.weights[:k],
            kth_rank=float(self.ranks[k - 1]) if held >= k else math.inf,
            threshold=float(self.ranks[k]) if held > k else math.inf,
            seeds=self.seeds[:k],
        )


class ShardDelta(NamedTuple):
    """What folding some events changes in a table: O(touched keys).

    ``touched`` are the distinct keys the events carried and ``sums`` their
    new running totals (zero totals included); ``entries`` is the table's
    new bottom-(k+1).  ``touched`` is sorted, in the table's dtype, when
    the fold stayed numeric, and an object array of Python keys in
    first-arrival order when it went generic.  ``at`` places the touched
    keys in the numeric table the delta was computed against: their
    ``np.searchsorted`` positions in its delta and in its base (``None``
    when that table was empty or the fold went generic), so applying the
    delta need not search again.
    """

    touched: np.ndarray
    sums: np.ndarray
    entries: ShardEntries
    at: "tuple[np.ndarray, np.ndarray] | None" = None


class ShardState:
    """Everything one assignment keeps of the events it has folded.

    The aggregated table comes in two forms:

    * **numeric** — two sorted tables of unique keys (one numeric dtype)
      and aligned running sums: the *base* ``keys`` / ``totals``, and the
      *delta* ``delta_keys`` / ``delta_totals`` of the keys touched since
      the two were last merged, whose totals override the base's.
      ``delta_at`` holds the delta keys' ``np.searchsorted`` positions in
      the base, and ``size`` counts the distinct keys of both;
    * **generic** (strings, tuples, mixed dtypes) — ``keys`` is ``None``
      and ``totals`` a ``dict`` from key to running sum, in first-arrival
      order.  A numeric table turns generic, once, when a chunk of another
      dtype arrives.

    A fold is two steps: :meth:`delta` reads the table and computes what
    the pending events change, :meth:`apply` builds the state after the
    change.  Nothing is written before :meth:`apply`, so a fold that fails
    or is interrupted leaves the state as it was.  Numeric-form arrays are
    never written after construction — :meth:`apply` builds a new delta,
    and a new base only when the delta outgrows ``_DELTA_SHARE`` of it —
    so a checkpoint snapshot may share them.  A generic table's dict is
    updated in place and copied out by :meth:`chunk`.
    """

    __slots__ = (
        "keys", "totals", "delta_keys", "delta_totals", "delta_at", "size",
        "entries",
    )

    def __init__(
        self,
        keys: "np.ndarray | None" = _NO_KEYS,
        totals: "np.ndarray | dict" = _NO_FLOATS,
        entries: ShardEntries = ShardEntries(),
        delta: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None,
        size: "int | None" = None,
    ) -> None:
        self.keys = keys
        self.totals = totals
        self.entries = entries
        self.delta_keys, self.delta_totals, self.delta_at = (
            (_NO_KEYS, _NO_FLOATS, _NO_KEYS) if delta is None else delta
        )
        self.size = len(totals) if size is None else size

    def __len__(self) -> int:
        """Distinct keys in the table."""
        return self.size if self.keys is not None else len(self.totals)

    def merged(self) -> "ShardState":
        """The same table with its delta merged into the base (``self``
        when the delta is empty or the table generic)."""
        if self.keys is None or not len(self.delta_keys):
            return self
        keys, (totals,) = _insert(
            self.keys, (self.totals,), self.delta_keys, (self.delta_totals,),
            self.delta_at,
        )
        return ShardState(keys, totals, self.entries, size=self.size)

    def chunk(self) -> tuple[np.ndarray, np.ndarray]:
        """The table as one pre-aggregated ``(keys, totals)`` chunk.

        Folding it onto an empty state restores the table exactly
        (``0 + T == T``), which is how a checkpoint carries it.
        """
        if self.keys is not None:
            merged = self.merged()
            return merged.keys, merged.totals
        return _object_array(list(self.totals)), np.fromiter(
            self.totals.values(), dtype=float, count=len(self.totals)
        )

    def stays_numeric(
        self, chunks: "list[tuple[np.ndarray, np.ndarray]]"
    ) -> bool:
        """One numeric dtype across the table and ``chunks``?

        One dtype guarantees that concatenating the chunks never lossily
        promotes keys (e.g. large int64 ids to float64).  Decides the form
        of the fold.
        """
        if self.keys is None:
            return False
        dtypes = {chunk_keys.dtype for chunk_keys, _ in chunks}
        if len(self):
            dtypes.add(self.keys.dtype)
        return len(dtypes) == 1 and dtypes.pop().kind in "biuf"

    def _as_dict(self) -> dict:
        """The table in generic form (the dict itself, if already generic)."""
        if self.keys is None:
            return self.totals
        table = self.merged()
        return dict(zip(table.keys.tolist(), table.totals.tolist()))

    def delta(
        self,
        k: int,
        family: RankFamily,
        hasher: KeyHasher,
        chunks: "list[tuple[np.ndarray, np.ndarray]]",
    ) -> ShardDelta:
        """What also aggregating ``chunks`` (arrival order) changes.

        Continues each touched key's sum from its stored total with the
        same float additions a one-shot aggregation performs, re-ranks the
        touched keys only, and selects the new bottom-(k+1) from the
        untouched old entries plus the touched keys.
        """
        old = self.entries
        chunks = [chunk for chunk in chunks if len(chunk[0])]
        if not chunks:
            return ShardDelta(_NO_KEYS, _NO_FLOATS, old)
        numeric = self.stays_numeric(chunks)
        at = None
        if numeric:
            touched, sums, at = self._continue_numeric(chunks)
            untouched = ~_member(
                touched, old.keys, np.searchsorted(touched, old.keys)
            )
            ranked = touched
        else:
            running = self._continue_generic(chunks)
            untouched = np.fromiter(
                (key not in running for key in old.keys.tolist()),
                dtype=bool, count=len(old.keys),
            )
            touched = _object_array(list(running))
            sums = np.fromiter(
                running.values(), dtype=float, count=len(running)
            )
            # The key forms process_batch would sample: one canonical
            # array for hashing, Python natives in the entries.
            ranked = as_key_array(list(running))
        live = np.flatnonzero(sums > 0.0)
        ranked, weights = ranked[live], sums[live]
        seeds = hasher.hash_array(ranked)
        if not numeric:
            ranked = ranked.astype(object)
        # No concatenation with an empty array of another dtype: int64
        # beside uint64 would promote the keys to float64.
        kept = old.keys[untouched]
        keys = np.concatenate([kept, ranked]) if len(kept) else ranked
        ranks = np.concatenate([
            old.ranks[untouched], family.ranks_array(weights, seeds)
        ])
        weights = np.concatenate([old.weights[untouched], weights])
        seeds = np.concatenate([old.seeds[untouched], seeds])
        if numeric:
            best = _smallest(ranks, keys, k + 1)
        else:
            best = _smallest(ranks, seeds, k + 1, keys)
        return ShardDelta(
            touched, sums,
            ShardEntries(keys[best], ranks[best], weights[best], seeds[best]),
            at,
        )

    def _continue_numeric(self, chunks):
        """``(touched keys, their new totals, their (delta, base)
        positions)``."""
        # The weights are concatenated only once the key copy and the
        # sort inside np.unique are gone: the peak holds one of the two.
        touched, inverse = np.unique(
            np.concatenate([keys for keys, _ in chunks]), return_inverse=True
        )
        weights = np.concatenate([weights for _, weights in chunks])
        if len(self):
            at = (
                np.searchsorted(self.delta_keys, touched),
                np.searchsorted(self.keys, touched),
            )
            sums = _stored(
                self.delta_keys, self.delta_totals, touched, at[0],
                _stored(self.keys, self.totals, touched, at[1], 0.0),
            )
        else:
            at, sums = None, np.zeros(len(touched))
        np.add.at(sums, inverse, weights)
        return touched, sums, at

    def _continue_generic(self, chunks) -> dict:
        """Dict-form twin of :meth:`_continue_numeric`: touched key -> new
        total, in first-arrival order."""
        stored = self._as_dict()
        running: dict = {}
        for chunk_keys, chunk_weights in chunks:
            for key, weight in zip(chunk_keys.tolist(), chunk_weights.tolist()):
                total = running.get(key)
                if total is None:
                    total = stored.get(key, 0.0)
                running[key] = total + weight
        return running

    def apply(self, delta: ShardDelta) -> "ShardState":
        """The state after ``delta``, which was computed against this one."""
        touched, sums, entries, at = delta
        if len(touched) == 0:
            return self
        if self.keys is None or touched.dtype.hasobject:
            totals = self._as_dict()
            totals.update(zip(touched.tolist(), sums.tolist()))
            return ShardState(None, totals, entries)
        if not len(self):
            return ShardState(touched, sums, entries)
        delta_at, base_at = at
        known = _member(self.keys, touched, base_at)
        if len(self.delta_keys):
            known |= _member(self.delta_keys, touched, delta_at)
        delta_keys, delta_columns = _insert(
            self.delta_keys, (self.delta_totals, self.delta_at),
            touched, (sums, base_at), delta_at,
        )
        state = ShardState(
            self.keys, self.totals, entries, (delta_keys, *delta_columns),
            self.size + len(touched) - int(np.count_nonzero(known)),
        )
        if len(delta_keys) > _DELTA_SHARE * len(self.keys):
            return state.merged()
        return state


def _member(
    haystack: np.ndarray, needles: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """Membership of ``needles`` in the sorted, non-empty ``haystack``,
    given their ``np.searchsorted`` positions ``at``."""
    return haystack[np.minimum(at, len(haystack) - 1)] == needles


def _stored(keys, totals, needles, at, missing):
    """``totals`` of the ``needles`` found in the sorted ``keys`` (given
    their positions ``at``), ``missing`` for the others."""
    if not len(keys):
        return missing
    slot = np.minimum(at, len(keys) - 1)
    return np.where(keys[slot] == needles, totals[slot], missing)


def _insert(keys, columns, rows, row_columns, at):
    """Sorted ``keys`` and their aligned ``columns`` with the sorted
    ``rows`` and aligned ``row_columns`` written in, given the rows'
    ``np.searchsorted`` positions ``at`` in ``keys``: a row whose key is
    present overwrites its columns, the others are inserted in order.
    Returns new arrays (or ``rows`` itself into empty ``keys``); nothing
    is written into an argument."""
    if not len(keys):
        return rows, row_columns
    fresh = ~_member(keys, rows, at)
    n_fresh = int(np.count_nonzero(fresh))
    if n_fresh == 0:
        out = tuple(column.copy() for column in columns)
        for column, values in zip(out, row_columns):
            column[at] = values
        return keys, out
    # A row lands after the old keys below it and the fresh rows before it.
    dest = at + np.cumsum(fresh) - fresh
    old = np.ones(len(keys) + n_fresh, dtype=bool)
    old[dest[fresh]] = False
    merged = np.empty(len(old), dtype=keys.dtype)
    merged[old] = keys
    merged[dest[fresh]] = rows[fresh]
    out = []
    for column, values in zip(columns, row_columns):
        written = np.empty(len(old), dtype=column.dtype)
        written[old] = column
        written[dest] = values
        out.append(written)
    return merged, tuple(out)


# Rows one fold step takes on.  A step's transients (sort, inverse, seeds,
# ranks: about ten arrays) are O(rows it folds), so a backlog of more
# pending rows than this is folded in several steps and peaks at one
# step's transients plus the old and new table.  A step of a large
# backlog touches more than _DELTA_SHARE of the base, so each extra step
# still merges into the base once more: a 120k-row first fold takes 1.4x
# as long in two steps, with the delta as without it.  A step is
# therefore as large as the memory gate allows: measured on a 200k-row
# backlog, the peak is 2 MiB above 32k-row steps', where one step over
# all of it is 5 MiB above.
_FOLD_ROWS = 1 << 17

# A delta of more keys than this share of the base is merged into it.  A
# fold copies the delta, so a larger share makes every fold dearer; a
# merge copies the base, so a smaller one makes merges more frequent.
# Measured on a 2-CPU host, 220k keys, k=256, two assignments, 60 folds
# of 2 000 events: mean fold 1.9 ms at 1/8, 2.0-2.4 ms at 1/4, 1.9-2.5 ms
# at 1/16 (and 3.2-3.5 ms when every fold copied the table).
_DELTA_SHARE = 1 / 8


class _Shard:
    """One assignment's folded state plus the chunks that arrived since."""

    __slots__ = ("state", "pending")

    def __init__(self) -> None:
        self.state = ShardState()
        self.pending: list[tuple[np.ndarray, np.ndarray]] = []

    def chunks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Table chunk (if any) then pending chunks: the checkpoint form.

        The merged table is kept as the new base, so the next checkpoint
        of an unchanged table costs nothing."""
        self.state = self.state.merged()
        table = [self.state.chunk()] if len(self.state) else []
        return table + self.pending

    def fold(self, k: int, family: RankFamily, hasher: KeyHasher) -> int:
        """Fold the leading pending chunks — as many as fit in
        :data:`_FOLD_ROWS` rows, at least one — into the state; returns
        the change in rows held (table keys + pending events).  A fold
        that raises leaves state and pending chunks as they were."""
        rows = count = 0
        for keys, _ in self.pending:
            if count and rows + len(keys) > _FOLD_ROWS:
                break
            rows += len(keys)
            count += 1
        distinct = len(self.state)
        self.state = self.state.apply(
            self.state.delta(k, family, hasher, self.pending[:count])
        )
        del self.pending[:count]
        return len(self.state) - distinct - rows


class ShardedSummarizer:
    """Bottom-k summarization of unaggregated event streams.

    Parameters
    ----------
    k:
        per-assignment bottom-k sample size.
    assignments:
        names of the weight assignments events may arrive for.
    family:
        rank family (default IPPS — priority sampling).
    hasher:
        the shared key hasher coordinating all assignments; two
        summarizers with equal hashers produce coordinated summaries,
        and over key-disjoint streams their bundles merge exactly.

    >>> eng = ShardedSummarizer(k=2, assignments=["h1", "h2"])
    >>> eng.ingest("h1", np.array([1, 2, 3]), np.array([5.0, 1.0, 9.0]))
    >>> eng.ingest("h1", np.array([2]), np.array([3.0]))  # unaggregated ok
    >>> eng.summary().kind
    'bottomk'
    """

    def __init__(
        self,
        k: int,
        assignments: Sequence[str],
        family: RankFamily | None = None,
        hasher: KeyHasher | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.assignments = list(assignments)
        if len(set(self.assignments)) != len(self.assignments):
            raise ValueError("assignment names must be distinct")
        if not self.assignments:
            raise ValueError("need at least one assignment")
        self.family = family if family is not None else IppsRanks()
        self.hasher = hasher if hasher is not None else KeyHasher(0)
        self._shards = {name: _Shard() for name in self.assignments}
        # Rows held over all assignments: table keys + pending events.
        self._rows = 0
        # Finalized per-assignment sketches, recomputed lazily after
        # every ingest (folding the pending events is O(new events)).
        self._sketch_cache: dict[str, BottomKSketch] | None = None

    def _shard_for(self, assignment: str) -> _Shard:
        try:
            return self._shards[assignment]
        except KeyError:
            known = ", ".join(self.assignments)
            raise ValueError(
                f"unknown assignment {assignment!r}; known: {known}"
            ) from None

    def _checked_weights(self, keys: np.ndarray, weights) -> np.ndarray:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1 or len(weights) != len(keys):
            raise ValueError(
                f"keys and weights must be 1-D of equal length, got "
                f"{len(keys)} keys and shape {weights.shape} weights"
            )
        valid = np.isfinite(weights) & (weights >= 0.0)
        if not valid.all():
            bad = int(np.flatnonzero(~valid)[0])
            raise ValueError(
                f"weights must be finite and non-negative, got "
                f"{weights[bad]!r} for key {keys[bad]!r}"
            )
        return weights

    def ingest(self, assignment: str, keys, weights) -> None:
        """Feed one batch of raw (key, weight) events for an assignment.

        Events are unaggregated: the same key may appear in any number of
        batches (and multiple times per batch); weights are summed per key.
        Key identity follows Python equality for numeric keys — ``1``,
        ``1.0``, and ``np.int64(1)`` all name the same key regardless of
        which batch or dtype they arrive in.  The one exception is bool,
        which the hash layer deliberately keeps distinct from 0/1: never
        mix bool and int representations of one logical key.  Weights must
        be finite and non-negative; zero weights are dropped at sampling
        time.
        """
        self.ingest_multi(keys, {assignment: weights})

    def ingest_multi(self, keys, weights_by_assignment) -> None:
        """Feed one key batch carrying weights for several assignments.

        Equivalent to calling :meth:`ingest` once per assignment with the
        same ``keys`` (bit-identical pending chunks), but the key array is
        canonicalized and copied once and shared, which matters when every
        event updates all assignments (e.g. bytes and packet-count weights
        of one flow record).
        """
        names = list(weights_by_assignment)
        shards = [self._shard_for(name) for name in names]
        keys = as_key_array(keys)
        checked = {
            name: self._checked_weights(keys, weights_by_assignment[name])
            for name in names
        }
        if len(keys) == 0 or not names:
            return
        self._sketch_cache = None
        self._rows += len(keys) * len(names)
        # Copy: without one, a caller refilling a preallocated batch buffer
        # would retroactively corrupt every pending chunk.  One key copy is
        # shared across assignments.
        keys = keys.copy()
        for name, shard in zip(names, shards):
            shard.pending.append((keys, checked[name].copy()))

    def ingest_stream(
        self, assignment: str, items: Iterable[tuple[Hashable, float]]
    ) -> None:
        """Feed an iterable of raw (key, weight) events for an assignment."""
        keys: list = []
        weights: list[float] = []
        for key, weight in items:
            keys.append(key)
            weights.append(float(weight))
        if keys:
            self.ingest(assignment, keys, np.asarray(weights, dtype=float))

    def _current_sketches(self) -> dict[str, BottomKSketch]:
        """Finalized per-assignment sketches, cached until the next ingest.

        Folds every assignment that has pending chunks (the others are
        already current), a bounded number of rows at a time and the
        assignments in turn — the peak holds one assignment's old and new
        table plus one step's transients, a key chunk that
        :meth:`ingest_multi` shared is freed as soon as every assignment
        has folded it, and a fold that raises leaves its pending chunks
        to be folded again by the next call.  These are internal state:
        callers go through :meth:`sketches`, which hands out defensive
        copies.
        """
        if self._sketch_cache is None:
            behind = [
                shard for shard in self._shards.values() if shard.pending
            ]
            while behind:
                for shard in behind:
                    self._rows += shard.fold(self.k, self.family, self.hasher)
                behind = [shard for shard in behind if shard.pending]
            self._sketch_cache = {
                name: shard.state.entries.sketch(self.k)
                for name, shard in self._shards.items()
            }
        return self._sketch_cache

    def sketches(self) -> dict[str, BottomKSketch]:
        """Aggregate and sample: one bottom-k sketch per assignment.

        Equals what one sampler per assignment would produce over the
        pre-aggregated stream.  The finalized sketches are cached until
        the next :meth:`ingest`; callers receive defensive copies, so
        mutating a returned sketch (or its arrays) cannot corrupt the
        cached state that later :meth:`summary` / :meth:`sketch_bundle`
        calls read.
        """
        return {
            name: sk.copy() for name, sk in self._current_sketches().items()
        }

    def summary(self) -> MultiAssignmentSummary:
        """Assemble the dispersed multi-assignment summary."""
        return build_summary_from_sketches(
            self._current_sketches(), self.family, method_name="shared_seed"
        )

    def sketch_bundle(self) -> "SketchBundle":
        """The storable artifact of this summarizer's current sketches.

        A :class:`~repro.store.codec.SketchBundle` carrying the
        per-assignment sketches plus the coordination metadata (family,
        hasher salt) a :class:`~repro.store.SummaryStore` needs to merge
        it exactly with artifacts from coordinated writers.
        """
        from repro.store.codec import SketchBundle

        if type(self.hasher) is not KeyHasher:
            # A custom hasher's behavior is not captured by its salt, so a
            # stored bundle would claim a coordination it cannot reproduce.
            raise ValueError(
                "sketch_bundle requires a plain KeyHasher (a custom hasher "
                "cannot be re-instantiated from its salt)"
            )
        return SketchBundle(
            kind="bottomk",
            sketches=self.sketches(),
            family=self.family,
            hasher_salt=self.hasher.salt,
            method_name="shared_seed",
        )

    # -- checkpoint / resume --------------------------------------------------

    def checkpoint_state(self) -> "SummarizerCheckpoint":
        """Freeze the summarizer for :mod:`repro.store.checkpoint`.

        Captures configuration, the coordination salt, and per assignment
        its aggregated table as one pre-aggregated ``(keys, totals)`` chunk
        followed by the pending raw chunks in arrival order.  Restoring
        (:meth:`from_checkpoint`) and finishing the stream is bit-identical
        to never having stopped (folding the table chunk first gives
        ``0 + T == T``, then every later addition is the same).  Chunk
        arrays are shared, not copied: the summarizer only ever appends
        chunks and replaces — never writes into — a table's arrays, so the
        snapshot stays valid while it lives.
        """
        from repro.store.codec import SummarizerCheckpoint

        if type(self.hasher) is not KeyHasher:
            raise ValueError(
                "checkpointing requires a plain KeyHasher (a custom hasher "
                "cannot be re-instantiated from its salt)"
            )
        return SummarizerCheckpoint(
            k=self.k,
            assignments=list(self.assignments),
            family=self.family,
            hasher_salt=self.hasher.salt,
            chunks={
                name: shard.chunks() for name, shard in self._shards.items()
            },
        )

    @classmethod
    def from_checkpoint(
        cls, state: "SummarizerCheckpoint"
    ) -> "ShardedSummarizer":
        """Rebuild a summarizer from a checkpoint snapshot.

        The restored instance has the same configuration, salt, and
        chunks (pending, in checkpoint order), so continuing the stream
        produces summaries bit-identical to an uninterrupted run.
        """
        restored = cls(
            k=state.k,
            assignments=state.assignments,
            family=state.family,
            hasher=KeyHasher(state.hasher_salt),
        )
        for name, shard in restored._shards.items():
            shard.pending = list(state.chunks[name])
        restored._rows = state.buffered_events
        return restored

    def save_checkpoint(self, path) -> int:
        """Write a checkpoint blob to ``path``; returns bytes written."""
        from repro.store.checkpoint import save_checkpoint

        return save_checkpoint(path, self)

    @classmethod
    def load_checkpoint(cls, path) -> "ShardedSummarizer":
        """Restore a summarizer from a checkpoint file."""
        from repro.store.checkpoint import load_checkpoint

        return load_checkpoint(path)

    @property
    def buffered_events(self) -> int:
        """Rows held, summed over all assignments: aggregated keys plus
        not-yet-folded events.  O(1).

        Before the first finalization this is the raw event count; a fold
        replaces the events it aggregates by their distinct keys.  A
        checkpoint → resume cycle preserves it (the table travels as one
        row per key).  A diagnostics counter (service status endpoints,
        ``__repr__``): zero means nothing was ever ingested and
        finalization would produce empty sketches, which is the signal the
        live-window layer uses to skip writing empty bundles.
        """
        return self._rows

    def __repr__(self) -> str:
        return (
            f"ShardedSummarizer(k={self.k}, "
            f"assignments={self.assignments!r}, "
            f"family={self.family.name!r}, "
            f"buffered_events={self.buffered_events})"
        )
