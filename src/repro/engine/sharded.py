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
   samples are assembled into the union summary with
   :func:`~repro.core.summary.build_summary_from_sketches`.

The paper's assignments are weights over *one* key set, and
:meth:`ShardedSummarizer.ingest_multi` stores them so: its assignments
share one key chunk, and tables folded from shared chunks share their key
arrays.  A fold step is therefore planned once per *group* — the
assignments whose table key arrays and folded key chunks are the same
objects — and its key side (the ``np.unique``, the lookups in base and
delta, the seeds, the new key layout) is paid once per batch, not once
per assignment; each assignment then continues its own sums, ranks and
entries.  A group of one is the same code.

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
    pooled = ranks[pool]
    order = np.argsort(pooled)
    pooled = pooled[order]
    if (pooled[1:] == pooled[:-1]).any():  # rank ties: the slower full sort
        order = np.lexsort((tiebreak[pool], ranks[pool]))
    pool = pool[order]
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
        """The table's bottom-k sketch, as a stream sampler would emit it.

        An integer table's keys keep their dtype — one array the codec
        writes as the Python ints it holds, the duplicate checks sort and
        the summary unites by sorting; float and bool keys are Python
        objects, as the sampler's are.
        """
        held = len(self.ranks)
        keys = self.keys[:k]
        return BottomKSketch(
            k=k,
            keys=keys if keys.dtype.kind in "iuO" else keys.astype(object),
            ranks=self.ranks[:k],
            weights=self.weights[:k],
            kth_rank=float(self.ranks[k - 1]) if held >= k else math.inf,
            threshold=float(self.ranks[k]) if held > k else math.inf,
            seeds=self.seeds[:k],
        )


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

    :meth:`fold` builds the state after some events and writes nothing
    into this one before the last step, so a fold that fails or is
    interrupted leaves the state as it was.  Numeric-form arrays are never
    written after construction — a fold builds a new delta, and a new base
    only when the delta outgrows ``_DELTA_SHARE`` of it — so a checkpoint
    snapshot may share them, and so may the assignments of an
    :meth:`~ShardedSummarizer.ingest_multi` batch: their folds share one
    :class:`_KeyPlan`, and every state it builds holds the plan's key
    arrays, so the key column of such a group is held once.  A generic
    table's dict is updated in place and copied out by :meth:`chunk`.
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
        return _merged([self])[0]

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

    def fold(
        self,
        chunks: "list[tuple[np.ndarray, np.ndarray]]",
        plan: "_KeyPlan | None",
        k: int,
        family: RankFamily,
        hasher: KeyHasher,
    ) -> "ShardState":
        """The state after also aggregating ``chunks`` (arrival order).

        ``plan`` is the key side of the fold (:meth:`_KeyPlan.build` of
        this state's key arrays and the chunks' keys), ``None`` when the
        fold goes generic.  Continues each touched key's sum from its
        stored total with the same float additions a one-shot aggregation
        performs, re-ranks the touched keys only, and selects the new
        bottom-(k+1) from the untouched old entries plus the touched keys.
        """
        if plan is not None:
            return plan.fold(
                self, np.concatenate([weights for _, weights in chunks]),
                k, family,
            )
        chunks = [chunk for chunk in chunks if len(chunk[0])]
        if not chunks:
            return self
        old = self.entries
        stored = self._as_dict()
        running = _continue_generic(stored, chunks)
        untouched = np.fromiter(
            (key not in running for key in old.keys.tolist()),
            dtype=bool, count=len(old.keys),
        )
        sums = np.fromiter(running.values(), dtype=float, count=len(running))
        # The key forms process_batch would sample: one canonical array
        # for hashing, Python natives in the entries.
        live = np.flatnonzero(sums > 0.0)
        ranked, weights = as_key_array(list(running))[live], sums[live]
        seeds = hasher.hash_array(ranked)
        entries = _select(
            old, untouched, ranked.astype(object), weights, seeds, k, family,
            by_key=False,
        )
        stored.update(running)
        return ShardState(None, stored, entries)


def _continue_generic(stored: dict, chunks) -> dict:
    """Touched key -> new total, in first-arrival order: each key's sum
    continued from its ``stored`` total, event by event."""
    running: dict = {}
    for chunk_keys, chunk_weights in chunks:
        for key, weight in zip(chunk_keys.tolist(), chunk_weights.tolist()):
            total = running.get(key)
            if total is None:
                total = stored.get(key, 0.0)
            running[key] = total + weight
    return running


def _select(old, untouched, keys, weights, seeds, k, family, by_key):
    """The new bottom-(k+1): the ``old`` entries not touched plus the
    touched ``keys`` of positive total (with their ``weights`` and
    ``seeds``), ties in rank broken by key (``by_key``) or by seed, then
    :func:`tie_order`."""
    # No concatenation with an empty array of another dtype: int64 beside
    # uint64 would promote the keys to float64.
    kept = old.keys[untouched]
    keys = np.concatenate([kept, keys]) if len(kept) else keys
    ranks = np.concatenate([
        old.ranks[untouched], family.ranks_array(weights, seeds)
    ])
    weights = np.concatenate([old.weights[untouched], weights])
    seeds = np.concatenate([old.seeds[untouched], seeds])
    if by_key:
        best = _smallest(ranks, keys, k + 1)
    else:
        best = _smallest(ranks, seeds, k + 1, keys)
    return ShardEntries(keys[best], ranks[best], weights[best], seeds[best])


def _member(
    haystack: np.ndarray, needles: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """Membership of ``needles`` in the sorted, non-empty ``haystack``,
    given their ``np.searchsorted`` positions ``at``."""
    return haystack[np.minimum(at, len(haystack) - 1)] == needles


def _lookup(haystack: np.ndarray, needles: np.ndarray):
    """``(np.searchsorted positions, membership)`` of the sorted
    ``needles`` in the sorted, non-empty ``haystack``."""
    at = np.searchsorted(haystack, needles)
    return at, _member(haystack, needles, at)


def _stored(totals, found, missing):
    """``totals`` at the positions of a :func:`_lookup` where it found
    the key, ``missing`` elsewhere."""
    at, hit = found
    return np.where(hit, totals.take(at, mode="clip"), missing)


def _layout(keys, rows, at):
    """The key half of writing the sorted ``rows`` into the sorted,
    non-empty ``keys``, given the rows' ``np.searchsorted`` positions
    ``at``: a row whose key is present overwrites it, the others are
    inserted in order.  Returns the new keys (``keys`` itself when every
    row is present) and the place :func:`_write` writes a column by;
    nothing is written into an argument."""
    fresh = ~_member(keys, rows, at)
    n_fresh = int(np.count_nonzero(fresh))
    if n_fresh == 0:
        return keys, (None, at)
    # A row lands after the old keys below it and the fresh rows before it.
    dest = at + np.cumsum(fresh) - fresh
    old = np.ones(len(keys) + n_fresh, dtype=bool)
    old[dest[fresh]] = False
    merged = np.empty(len(old), dtype=keys.dtype)
    merged[old] = keys
    merged[dest[fresh]] = rows[fresh]
    return merged, (old, dest)


def _write(column, values, place):
    """The column half: a new ``column`` (aligned with the old keys) with
    the rows' ``values`` written in, at the ``place`` of a
    :func:`_layout`."""
    old, dest = place
    if old is None:
        written = column.copy()
    else:
        written = np.empty(len(old), dtype=column.dtype)
        written[old] = column
    written[dest] = values
    return written


def _merged(states: "list[ShardState]") -> "list[ShardState]":
    """``states`` that share their key arrays, each with its delta merged
    into its base (``states`` itself when the delta is empty or the tables
    generic); the key half of the merge is computed once and the merged
    keys are shared."""
    lead = states[0]
    if lead.keys is None or not len(lead.delta_keys):
        return states
    keys, place = _layout(lead.keys, lead.delta_keys, lead.delta_at)
    return [
        ShardState(
            keys, _write(state.totals, state.delta_totals, place),
            state.entries, size=state.size,
        )
        for state in states
    ]


class _KeyPlan:
    """The key side of one numeric fold step, computed once for every
    assignment whose table has the same key arrays and whose step folds
    the same key chunks: the touched keys and the events' places among
    them, the keys' seeds, their places in the table, and the key arrays
    of the new table.  :meth:`fold` is one assignment's share — its sums,
    ranks, entries and total columns — whose transients die with the
    call, so a group's fold peaks at the plan plus one assignment's
    transients."""

    __slots__ = (
        "touched", "inverse", "seeds", "base", "delta", "size", "insert",
        "keys", "delta_keys", "delta_at", "merge",
    )

    @classmethod
    def build(cls, state, chunks, hasher) -> "_KeyPlan | None":
        """The plan of folding ``chunks`` into ``state`` (and every state
        sharing its key arrays), ``None`` when the fold goes generic."""
        chunks = [chunk for chunk in chunks if len(chunk[0])]
        if chunks and state.stays_numeric(chunks):
            return cls(state, chunks, hasher)
        return None

    def __init__(self, state, chunks, hasher) -> None:
        touched, inverse = np.unique(
            np.concatenate([keys for keys, _ in chunks]), return_inverse=True
        )
        if len(touched) <= np.iinfo(np.int32).max:
            inverse = inverse.astype(np.int32)
        self.touched, self.inverse = touched, inverse
        self.seeds = hasher.hash_array(touched)
        self.delta = self.insert = self.merge = None
        self.delta_keys = self.delta_at = None
        if not len(state):  # the touched keys become the table
            self.base, self.keys, self.size = None, touched, len(touched)
            return
        self.base = _lookup(state.keys, touched)
        known = self.base[1]
        if len(state.delta_keys):
            self.delta = _lookup(state.delta_keys, touched)
            known = known | self.delta[1]
            self.delta_keys, self.insert = _layout(
                state.delta_keys, touched, self.delta[0]
            )
            self.delta_at = _write(state.delta_at, self.base[0], self.insert)
        else:  # the touched keys become the delta
            self.delta_keys, self.delta_at = touched, self.base[0]
        self.size = state.size + len(touched) - int(np.count_nonzero(known))
        self.keys = state.keys
        if len(self.delta_keys) > _DELTA_SHARE * len(state.keys):
            self.keys, self.merge = _layout(
                state.keys, self.delta_keys, self.delta_at
            )

    def fold(self, state, weights, k, family) -> ShardState:
        """``state`` after the step, given the folded events' ``weights``
        in arrival order."""
        touched = self.touched
        if self.base is None:
            sums = np.zeros(len(touched))
        else:
            sums = _stored(state.totals, self.base, 0.0)
            if self.delta is not None:
                sums = _stored(state.delta_totals, self.delta, sums)
        np.add.at(sums, self.inverse, weights)
        live = sums > 0.0
        if live.all():  # no copies
            ranked, positive, seeds = touched, sums, self.seeds
        else:
            live = np.flatnonzero(live)
            ranked, positive = touched[live], sums[live]
            seeds = self.seeds[live]
        old = state.entries
        untouched = ~_member(
            touched, old.keys, np.searchsorted(touched, old.keys)
        )
        entries = _select(
            old, untouched, ranked, positive, seeds, k, family, by_key=True
        )
        if self.base is None:
            return ShardState(touched, sums, entries)
        delta_totals = (
            sums if self.insert is None
            else _write(state.delta_totals, sums, self.insert)
        )
        if self.merge is not None:
            return ShardState(
                self.keys, _write(state.totals, delta_totals, self.merge),
                entries, size=self.size,
            )
        return ShardState(
            self.keys, state.totals, entries,
            (self.delta_keys, delta_totals, self.delta_at), self.size,
        )


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
        """Table chunk (if any) then pending chunks: the checkpoint form."""
        table = [self.state.chunk()] if len(self.state) else []
        return table + self.pending

    def step(self) -> int:
        """How many leading pending chunks the next fold step takes: as
        many as fit in :data:`_FOLD_ROWS` rows, at least one."""
        rows = count = 0
        for keys, _ in self.pending:
            if count and rows + len(keys) > _FOLD_ROWS:
                break
            rows += len(keys)
            count += 1
        return count

    def fold(
        self,
        count: int,
        plan: "_KeyPlan | None",
        k: int,
        family: RankFamily,
        hasher: KeyHasher,
    ) -> int:
        """Fold the leading ``count`` pending chunks, whose key side is
        ``plan``, into the state; returns the change in rows held (table
        keys + pending events).  A fold that raises leaves state and
        pending chunks as they were."""
        chunks = self.pending[:count]
        rows = sum(len(keys) for keys, _ in chunks)
        distinct = len(self.state)
        self.state = self.state.fold(chunks, plan, k, family, hasher)
        del self.pending[:count]
        return len(self.state) - distinct - rows


def _table_id(state: ShardState) -> tuple:
    """The identity of a table's key arrays: states that share it share
    their key layout."""
    return id(state.keys), id(state.delta_keys), id(state.delta_at)


def _steps(shards: "list[_Shard]") -> "list[tuple[int, list[_Shard]]]":
    """``(chunk count, group)`` per group of ``shards`` whose next fold
    step has one key side: the same table key arrays and the same key
    chunks to fold — the same *objects*, never an O(n) comparison."""
    steps: dict = {}
    for shard in shards:
        count = shard.step()
        ident = (
            _table_id(shard.state),
            *(id(keys) for keys, _ in shard.pending[:count]),
        )
        steps.setdefault(ident, (count, []))[1].append(shard)
    return list(steps.values())


def _shared(keys: np.ndarray, seen: "list[np.ndarray]") -> np.ndarray:
    """An array of ``seen`` equal to the numeric ``keys`` (same dtype, same
    values) if there is one, else ``keys``, recorded in ``seen``."""
    if keys.dtype.kind not in "biuf":
        return keys
    for twin in seen:
        if twin is keys or (
            twin.dtype == keys.dtype and np.array_equal(twin, keys)
        ):
            return twin
    seen.append(keys)
    return keys


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
        same ``keys`` (bit-identical pending chunks and summaries), but the
        key array is canonicalized and copied once and shared, and so is
        the key side of folding it: assignments whose tables share their
        key arrays fold it as one group, with one ``np.unique``, one
        lookup and one hash of its keys, and keep sharing one key column.
        That matters when every event updates all assignments (e.g. bytes
        and packet-count weights of one flow record).
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

        These are internal state: callers go through :meth:`sketches`,
        which hands out defensive copies.
        """
        if self._sketch_cache is None:
            self._fold()
            self._sketch_cache = {
                name: shard.state.entries.sketch(self.k)
                for name, shard in self._shards.items()
            }
        return self._sketch_cache

    def _fold(self) -> None:
        """Fold every assignment that has pending chunks (the others are
        already current), a bounded number of rows at a time, one group
        of assignments with a shared key side at a time (see
        :class:`_KeyPlan`) and the group's assignments in turn — the peak
        holds the group's key plan, one assignment's old and new columns
        and that assignment's transients; a key chunk that
        :meth:`ingest_multi` shared is freed as soon as every assignment
        has folded it, and a fold that raises leaves the assignments
        already folded folded and the others' pending chunks to be folded
        again by the next call.
        """
        behind = [shard for shard in self._shards.values() if shard.pending]
        while behind:
            for count, group in _steps(behind):
                self._fold_step(count, group)
            behind = [shard for shard in behind if shard.pending]

    def _fold_step(self, count: int, group: "list[_Shard]") -> None:
        """One fold step of a group: its key plan once, then each
        assignment in turn, each committed (state, pending chunks, rows
        held) before the next one starts."""
        lead = group[0]
        plan = _KeyPlan.build(lead.state, lead.pending[:count], self.hasher)
        for shard in group:
            self._rows += shard.fold(
                count, plan, self.k, self.family, self.hasher
            )

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
        """Assemble the dispersed multi-assignment summary.

        :func:`~repro.core.summary.build_summary_from_sketches` of
        :meth:`sketches`: an integer table's sample keeps its integer key
        column, so the samples unite by sorting.
        """
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
        """Freeze the summarizer mid-stream.

        The snapshot lives in memory, or durably as a store artifact:
        ``store.write(namespace, bucket, summarizer.checkpoint_state())``,
        restored with ``from_checkpoint(store.load(entry))``.

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
        # Each table's delta is merged into its base, once per group of
        # shared key arrays; the merged tables are kept, so the group
        # survives and the next checkpoint of an unchanged table costs
        # nothing.
        tables: dict = {}
        for shard in self._shards.values():
            tables.setdefault(_table_id(shard.state), []).append(shard)
        for group in tables.values():
            merged = _merged([shard.state for shard in group])
            for shard, state in zip(group, merged):
                shard.state = state
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
        produces summaries bit-identical to an uninterrupted run.  A key
        chunk equal to another assignment's at the same position is
        replaced by it (one comparison per chunk), so the assignments of
        an :meth:`ingest_multi` window fold as one group again.
        """
        restored = cls(
            k=state.k,
            assignments=state.assignments,
            family=state.family,
            hasher=KeyHasher(state.hasher_salt),
        )
        seen: dict[int, list[np.ndarray]] = {}
        for name, shard in restored._shards.items():
            shard.pending = [
                (_shared(keys, seen.setdefault(at, [])), weights)
                for at, (keys, weights) in enumerate(state.chunks[name])
            ]
        restored._rows = state.buffered_events
        return restored

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
