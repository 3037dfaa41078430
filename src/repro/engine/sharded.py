"""Hash-sharded, batch-fed summarization of unaggregated streams.

:class:`ShardedSummarizer` is the engine front door: feed it raw
(key, weight) events — unaggregated, batched, in any order — for any
number of weight assignments, and it produces the paper's dispersed
:class:`~repro.core.summary.MultiAssignmentSummary` with no access to a
dense weight matrix.

The pipeline per assignment:

1. **partition** — every batch is hash-partitioned by key across
   ``n_shards`` shards (:func:`shard_indices`), so all occurrences of a
   key land in the same shard and shards are key-disjoint by construction;
   a shard only queues the batch slice as *pending*;
2. **fold** — at finalization each shard that has pending events folds
   just those, inline and one shard after another, into its
   :class:`ShardState`: an aggregated table (unique keys +
   running per-key totals, the pre-aggregation bottom-k sampling
   requires) and the table's ``k + 1`` smallest-rank entries.  The pending
   events are aggregated (vectorized ``np.unique`` for numeric keys), each
   touched key's running sum is continued in arrival order from its stored
   total (``np.add.at``), and only the touched keys are re-ranked, with
   *one shared hasher* across all shards and assignments (the
   dispersed-coordination device of Section 4);
3. **select** — the shard's new bottom-(k+1) is taken from *(old entries
   not touched) ∪ (touched keys)*.  This is exact: weights are
   non-negative and ranks are non-increasing in the weight at a fixed seed
   (see :class:`~repro.ranks.families.RankFamily`), so an untouched key
   outside the old ``k + 1`` can never enter the new one.  Folded events
   are dropped — the table *is* the buffer — so a query after new data
   sorts, hashes and ranks O(new events) (plus one array copy of each
   touched shard's table, which is replaced, never written into), and
   memory is O(distinct keys + pending events), not O(events);
4. **merge** — shard sketches are combined exactly with
   :func:`~repro.engine.merge.merge_bottomk`, and per-assignment merged
   sketches are assembled into the union summary with
   :func:`~repro.core.summary.build_summary_from_sketches`.

Every step is deterministic given the hasher salt — rank ties (a ~2⁻⁵³
event) are broken by key within a shard (by seed where keys cannot be
ordered) and by shard index in the merge, never by arrival — so two
deployments that never communicate — different shard counts, different
batch boundaries, different event order, different moments of
finalization — produce the *same* summary for the same totals.  (Totals
are float sums in arrival order, so "the same totals" means the same
per-key event order.)
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.summary import (
    MultiAssignmentSummary,
    build_summary_from_sketches,
)
from repro.engine.merge import merge_bottomk
from repro.ranks.families import IppsRanks, RankFamily
from repro.ranks.hashing import (
    _MASK64,
    KeyHasher,
    _key_to_int,
    _object_array,
    as_key_array,
    key_array_to_uint64,
    splitmix64,
    splitmix64_array,
)
from repro.sampling.bottomk import BottomKSketch

__all__ = ["shard_indices", "ShardedSummarizer"]

# Salt folded into the partition hash so shard placement is (practically)
# independent of the rank seeds even when the same KeyHasher salt is used.
_PARTITION_SALT = 0x5EED_BA5E_D15C0


def shard_indices(keys, n_shards: int, salt: int = 0) -> np.ndarray:
    """Hash-partition keys into ``n_shards`` buckets, vectorized.

    Deterministic and independent of the rank hasher: the same key always
    lands in the same shard, which is what makes the shard sketches
    key-disjoint (and therefore exactly mergeable).

    >>> idx = shard_indices(np.arange(8), n_shards=3)
    >>> bool((idx >= 0).all() and (idx < 3).all())
    True
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    keys = as_key_array(keys)
    mix = splitmix64((_PARTITION_SALT ^ salt) & _MASK64)
    ints = key_array_to_uint64(keys)
    if ints is None:
        hashed = np.fromiter(
            (splitmix64(_key_to_int(key) ^ mix) for key in keys.tolist()),
            dtype=np.uint64,
            count=len(keys),
        )
    else:
        hashed = splitmix64_array(ints ^ np.uint64(mix))
    return (hashed % np.uint64(n_shards)).astype(np.int64)


def _smallest(ranks: np.ndarray, tiebreak: np.ndarray, limit: int) -> np.ndarray:
    """Indices of the ``limit`` smallest ``(rank, tiebreak)`` pairs, ascending.

    Ties at the cut are all kept for the final sort, so the selection is a
    function of the pairs alone, never of their order in the input.
    """
    if len(ranks) > limit:
        cut = np.partition(ranks, limit - 1)[limit - 1]
        pool = np.flatnonzero(ranks <= cut)
    else:
        pool = np.arange(len(ranks))
    return pool[np.lexsort((tiebreak[pool], ranks[pool]))[:limit]]


_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_FLOATS = np.empty(0)


class ShardEntries(NamedTuple):
    """A shard's ``k + 1`` positive-total keys of smallest rank, ascending.

    The k sample entries plus the key that sets the threshold.  Ties in
    rank are broken by key in a numeric table and by seed in a generic one
    (whose keys need not be orderable).
    """

    keys: np.ndarray = _NO_KEYS
    ranks: np.ndarray = _NO_FLOATS
    weights: np.ndarray = _NO_FLOATS
    seeds: np.ndarray = _NO_FLOATS

    def sketch(self, k: int) -> BottomKSketch:
        """The shard's bottom-k sketch, as a stream sampler would emit it."""
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
    """What folding some events changes in a shard: O(touched keys).

    ``touched`` are the distinct keys the events carried and ``sums`` their
    new running totals (zero totals included); ``entries`` is the shard's
    new bottom-(k+1).  ``touched`` is sorted, in the table's dtype, when
    the fold stayed numeric, and an object array of Python keys in
    first-arrival order when it went generic.  ``at`` places the touched
    keys in the numeric table the delta was computed against (their
    ``np.searchsorted`` positions; ``None`` when that table was empty or
    the fold went generic), so applying the delta need not search again.
    """

    touched: np.ndarray
    sums: np.ndarray
    entries: ShardEntries
    at: "np.ndarray | None" = None


class ShardState:
    """Everything one (assignment, shard) keeps of the events it has folded.

    The aggregated table comes in two forms:

    * **numeric** — ``keys`` is a sorted array of the unique keys (one
      numeric dtype) and ``totals`` the aligned running sums;
    * **generic** (strings, tuples, mixed dtypes) — ``keys`` is ``None``
      and ``totals`` a ``dict`` from key to running sum, in first-arrival
      order.  A numeric table turns generic, once, when a chunk of another
      dtype arrives.

    A fold is two steps: :meth:`delta` reads the table and computes what
    the pending events change, :meth:`apply` builds the state after the
    change.  Nothing is written before :meth:`apply`, so a fold that fails
    or is interrupted leaves the shard as it was.  Numeric-form arrays are
    never written after construction — :meth:`apply` builds new ones — so
    a checkpoint snapshot may share them.  A generic table's dict is
    updated in place and copied out by :meth:`chunk`.
    """

    __slots__ = ("keys", "totals", "entries")

    def __init__(
        self,
        keys: "np.ndarray | None" = _NO_KEYS,
        totals: "np.ndarray | dict" = _NO_FLOATS,
        entries: ShardEntries = ShardEntries(),
    ) -> None:
        self.keys = keys
        self.totals = totals
        self.entries = entries

    def __len__(self) -> int:
        """Distinct keys in the table."""
        return len(self.totals)

    def chunk(self) -> tuple[np.ndarray, np.ndarray]:
        """The table as one pre-aggregated ``(keys, totals)`` chunk.

        Folding it onto an empty state restores the table exactly
        (``0 + T == T``), which is how a checkpoint carries it.
        """
        if self.keys is not None:
            return self.keys, self.totals
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
        return dict(zip(self.keys.tolist(), self.totals.tolist()))

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
        best = _smallest(ranks, keys if numeric else seeds, k + 1)
        return ShardDelta(
            touched, sums,
            ShardEntries(keys[best], ranks[best], weights[best], seeds[best]),
            at,
        )

    def _continue_numeric(self, chunks):
        """``(touched keys, their new totals, their table positions)``."""
        if len(chunks) == 1:
            (keys, weights), = chunks
        else:
            keys = np.concatenate([chunk_keys for chunk_keys, _ in chunks])
            weights = np.concatenate([chunk_w for _, chunk_w in chunks])
        touched, inverse = np.unique(keys, return_inverse=True)
        size = len(self.keys)
        if size:
            at = np.searchsorted(self.keys, touched)
            slot = np.minimum(at, size - 1)
            sums = np.where(self.keys[slot] == touched, self.totals[slot], 0.0)
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
        size = len(self.keys)
        if size == 0:
            return ShardState(touched, sums, entries)
        fresh = ~_member(self.keys, touched, at)
        n_fresh = int(np.count_nonzero(fresh))
        if n_fresh == 0:
            totals = self.totals.copy()
            totals[at] = sums
            return ShardState(self.keys, totals, entries)
        # Merge the sorted fresh keys into the sorted table: a touched key
        # lands after the old keys below it and the fresh keys before it.
        dest = at + np.cumsum(fresh) - fresh
        old = np.ones(size + n_fresh, dtype=bool)
        old[dest[fresh]] = False
        keys = np.empty(size + n_fresh, dtype=self.keys.dtype)
        keys[old] = self.keys
        keys[dest[fresh]] = touched[fresh]
        totals = np.empty(size + n_fresh)
        totals[old] = self.totals
        totals[dest] = sums
        return ShardState(keys, totals, entries)


def _member(
    haystack: np.ndarray, needles: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """Membership of ``needles`` in the sorted, non-empty ``haystack``,
    given their ``np.searchsorted`` positions ``at``."""
    return haystack[np.minimum(at, len(haystack) - 1)] == needles


class _Shard:
    """One shard's folded state plus the chunks that arrived since."""

    __slots__ = ("state", "pending")

    def __init__(self) -> None:
        self.state = ShardState()
        self.pending: list[tuple[np.ndarray, np.ndarray]] = []

    def chunks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Table chunk (if any) then pending chunks: the checkpoint form."""
        table = [self.state.chunk()] if len(self.state) else []
        return table + self.pending

    def fold(self, k: int, family: RankFamily, hasher: KeyHasher) -> int:
        """Fold the pending chunks into the state; returns the change in
        rows held (table keys + pending events).  A fold that raises
        leaves the shard, pending chunks included, as it was."""
        held = len(self.state) + sum(len(keys) for keys, _ in self.pending)
        self.state = self.state.apply(
            self.state.delta(k, family, hasher, self.pending)
        )
        self.pending = []
        return len(self.state) - held


class ShardedSummarizer:
    """Hash-sharded bottom-k summarization of unaggregated event streams.

    Parameters
    ----------
    k:
        per-assignment bottom-k sample size.
    assignments:
        names of the weight assignments events may arrive for.
    n_shards:
        number of key-disjoint shard samplers per assignment.
    family:
        rank family (default IPPS — priority sampling).
    hasher:
        the shared key hasher coordinating all shards and assignments;
        two summarizers with equal hashers produce coordinated summaries.
    partition_salt:
        extra salt for shard placement (does not affect the summary).

    >>> eng = ShardedSummarizer(k=2, assignments=["h1", "h2"], n_shards=2)
    >>> eng.ingest("h1", np.array([1, 2, 3]), np.array([5.0, 1.0, 9.0]))
    >>> eng.ingest("h1", np.array([2]), np.array([3.0]))  # unaggregated ok
    >>> eng.summary().kind
    'bottomk'
    """

    def __init__(
        self,
        k: int,
        assignments: Sequence[str],
        n_shards: int = 8,
        family: RankFamily | None = None,
        hasher: KeyHasher | None = None,
        partition_salt: int = 0,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.k = k
        self.assignments = list(assignments)
        if len(set(self.assignments)) != len(self.assignments):
            raise ValueError("assignment names must be distinct")
        if not self.assignments:
            raise ValueError("need at least one assignment")
        self.n_shards = n_shards
        self.family = family if family is not None else IppsRanks()
        self.hasher = hasher if hasher is not None else KeyHasher(0)
        self.partition_salt = partition_salt
        self._shards: dict[str, list[_Shard]] = {
            name: [_Shard() for _ in range(n_shards)]
            for name in self.assignments
        }
        # Rows held over all shards: table keys + pending events.
        self._rows = 0
        # Finalized per-assignment merged sketches, recomputed lazily after
        # every ingest (folding the pending events is O(new events)).
        self._sketch_cache: dict[str, BottomKSketch] | None = None

    def _shards_for(self, assignment: str) -> list[_Shard]:
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

    def _partition_order(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stable grouping of a batch by shard: ``(order, bounds)``.

        One stable sort by shard id plus boundary slices, instead of one
        full-array boolean mask per shard.  The stable sort keeps each
        shard's events in arrival order, so the buffered chunks are
        element-identical to a mask-based split.  Narrowing the ids to the
        smallest dtype that holds n_shards lets the stable radix sort do
        1-2 byte passes instead of 8.
        """
        ids = shard_indices(keys, self.n_shards, self.partition_salt)
        if self.n_shards <= 1 << 8:
            ids = ids.astype(np.uint8)
        elif self.n_shards <= 1 << 16:
            ids = ids.astype(np.uint16)
        order = np.argsort(ids, kind="stable")
        bounds = np.searchsorted(ids[order], np.arange(self.n_shards + 1))
        return order, bounds

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
        same ``keys`` (bit-identical pending chunks), but the partition —
        hash, stable sort, key gather — is computed once and shared, which
        matters when every event updates all assignments (e.g. bytes and
        packet-count weights of one flow record).
        """
        names = list(weights_by_assignment)
        shards_by_name = {name: self._shards_for(name) for name in names}
        keys = as_key_array(keys)
        checked = {
            name: self._checked_weights(keys, weights_by_assignment[name])
            for name in names
        }
        if len(keys) == 0 or not names:
            return
        self._sketch_cache = None
        self._rows += len(keys) * len(names)
        if self.n_shards == 1:
            # Copy: the multi-shard path copies via gather indexing; without
            # one here a caller refilling a preallocated batch buffer would
            # retroactively corrupt every pending chunk.  One key copy is
            # shared across assignments, like sorted_keys below.
            keys = keys.copy()
            for name in names:
                shards_by_name[name][0].pending.append(
                    (keys, checked[name].copy())
                )
            return
        order, bounds = self._partition_order(keys)
        sorted_keys = keys[order]
        for name in names:
            sorted_weights = checked[name][order]
            shards = shards_by_name[name]
            for shard in range(self.n_shards):
                lo, hi = bounds[shard], bounds[shard + 1]
                if hi > lo:
                    # Slices view the per-batch copies made above, so later
                    # caller mutation of the ingested arrays cannot reach
                    # them.
                    shards[shard].pending.append(
                        (sorted_keys[lo:hi], sorted_weights[lo:hi])
                    )

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

    def _merged_sketches(self) -> dict[str, BottomKSketch]:
        """Finalized per-assignment sketches, cached until the next ingest.

        Folds every shard that has pending chunks (shards without are
        already current), one after another — the peak holds one shard's
        old and new table, and a fold that raises leaves its shard to be
        folded again by the next call — then merges the shard sketches.
        These are internal state: callers go through :meth:`sketches`,
        which hands out defensive copies.
        """
        if self._sketch_cache is None:
            for shards in self._shards.values():
                for shard in shards:
                    if shard.pending:
                        self._rows += shard.fold(
                            self.k, self.family, self.hasher
                        )
            self._sketch_cache = {
                name: merge_bottomk(
                    *(shard.state.entries.sketch(self.k) for shard in shards)
                )
                for name, shards in self._shards.items()
            }
        return self._sketch_cache

    def sketches(self) -> dict[str, BottomKSketch]:
        """Aggregate, sample, and merge: one bottom-k sketch per assignment.

        Equals what one sampler per assignment would produce over the
        pre-aggregated stream — sharding is invisible in the output.  The
        finalized sketches are cached until the next :meth:`ingest`;
        callers receive defensive copies, so mutating a returned sketch
        (or its arrays) cannot corrupt the cached shard state that later
        :meth:`summary` / :meth:`sketch_bundle` calls read.
        """
        return {
            name: sk.copy() for name, sk in self._merged_sketches().items()
        }

    def summary(self) -> MultiAssignmentSummary:
        """Assemble the dispersed multi-assignment summary."""
        return build_summary_from_sketches(
            self._merged_sketches(), self.family, method_name="shared_seed"
        )

    def sketch_bundle(self) -> "SketchBundle":
        """The storable artifact of this summarizer's current sketches.

        A :class:`~repro.store.codec.SketchBundle` carrying the merged
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

        Captures configuration, coordination salts, and per shard its
        aggregated table as one pre-aggregated ``(keys, totals)`` chunk
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
            n_shards=self.n_shards,
            family=self.family,
            hasher_salt=self.hasher.salt,
            partition_salt=self.partition_salt,
            chunks={
                name: [shard.chunks() for shard in shards]
                for name, shards in self._shards.items()
            },
        )

    @classmethod
    def from_checkpoint(
        cls, state: "SummarizerCheckpoint"
    ) -> "ShardedSummarizer":
        """Rebuild a summarizer from a checkpoint snapshot.

        The restored instance has the same configuration, salts, and
        chunks (pending, in checkpoint order), so continuing the stream
        produces summaries bit-identical to an uninterrupted run.
        """
        restored = cls(
            k=state.k,
            assignments=state.assignments,
            n_shards=state.n_shards,
            family=state.family,
            hasher=KeyHasher(state.hasher_salt),
            partition_salt=state.partition_salt,
        )
        for name in restored.assignments:
            for shard, chunk_list in zip(
                restored._shards[name], state.chunks[name]
            ):
                shard.pending = [
                    (keys, weights) for keys, weights in chunk_list
                ]
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
        """Rows held, summed over all assignments and shards: aggregated
        keys plus not-yet-folded events.  O(1).

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
            f"assignments={self.assignments!r}, n_shards={self.n_shards}, "
            f"family={self.family.name!r}, "
            f"buffered_events={self.buffered_events})"
        )
