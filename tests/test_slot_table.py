"""One slotted table == one summarizer per slot, bit for bit.

A cluster worker keeps the key-disjoint slots of a namespace in one
:class:`~repro.engine.sharded.SlotSummarizers` — one slotted table with
each slot's own ``k + 1`` entries while it can, one summarizer per slot
after a batch it cannot hold.  Whatever happens to it — interleaved
ingests and folds, rank ties, a slot reset mid-stream, a checkpoint →
resume, a key arriving in a second slot — every slot must read exactly
as a summarizer fed that slot's events alone: the same row count and
checkpoint chunks after every step (while both fold at the same moments:
a split mid-fold changes which chunks were folded, never the result),
the same sketches, chunks and row counts at the end.  Keys
are int64, uint64 at or above 2⁶³, ``str`` or tuples.

The seed is fixed and the example count comes from the hypothesis
profile, so the CI profile widens the search without changing what a
failure reproduces as.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

import repro.engine.sharded as sharded
from repro.engine.sharded import ShardedSummarizer, SlotSummarizers
from repro.ranks.families import ExponentialRanks, IppsRanks
from repro.ranks.hashing import KeyHasher

NAMES = ("h1", "h2")
SALT = 5
KEY_KINDS = {
    "int64": lambda i: i - 20,
    "uint64": lambda i: 2**63 + i,
    "str": lambda i: f"k{i}",
    "tuple": lambda i: (i, "t"),
}
# a denormal weight ranks +inf: ties among such keys break by key
WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 5e-324]) | st.floats(
    min_value=0.01, max_value=100.0
)


@st.composite
def plans(draw):
    n_slots = draw(st.integers(1, 4))
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        action = draw(st.sampled_from(
            ["ingest", "ingest", "ingest", "fold", "reset", "resume"]
        ))
        if action == "ingest":
            slots = draw(st.lists(
                st.integers(0, n_slots - 1), min_size=1, max_size=n_slots,
                unique=True,
            ))
            sections = []
            for slot in slots:
                # a key's slot is its id modulo the slot count, unless the
                # plan sends it astray (a key in a second slot)
                ids = draw(st.lists(
                    st.integers(0, 7).map(lambda i: i * n_slots + slot),
                    min_size=1, max_size=6,
                ))
                if draw(st.integers(0, 19)) == 0 and n_slots > 1:
                    ids.append(draw(st.integers(0, 30)))
                names = draw(st.sampled_from([NAMES, NAMES[:1]]))
                sections.append((slot, ids, {
                    name: draw(st.lists(
                        WEIGHTS, min_size=len(ids), max_size=len(ids)
                    ))
                    for name in names
                }))
            ops.append(("ingest", sections))
        elif action == "fold":
            ops.append(("fold", draw(st.integers(0, n_slots - 1))))
        elif action == "reset":
            ops.append(("reset", draw(st.integers(0, n_slots - 1))))
        else:
            ops.append(("resume",))
    return n_slots, ops


def same_chunks(got, want) -> None:
    assert got.k == want.k and got.assignments == want.assignments
    for name in want.assignments:
        assert len(got.chunks[name]) == len(want.chunks[name])
        for (keys, weights), (want_keys, want_weights) in zip(
            got.chunks[name], want.chunks[name]
        ):
            assert keys.dtype == want_keys.dtype
            assert keys.tolist() == want_keys.tolist()
            assert weights.tobytes() == want_weights.tobytes()


def run(kind: str, family, k: int, n_slots: int, ops) -> None:
    def make(slots=None):
        return ShardedSummarizer(
            k, NAMES, family=family, hasher=KeyHasher(SALT), slots=slots
        )

    key = KEY_KINDS[kind]
    group = SlotSummarizers(make, n_slots)
    refs = [make() for _ in range(n_slots)]
    aligned = True  # every fold so far landed on the same chunks
    for op in ops:
        if op[0] == "ingest":
            sections = [
                (slot, [key(i) for i in ids], {
                    name: np.asarray(w, dtype=float)
                    for name, w in weights.items()
                })
                for slot, ids, weights in op[1]
            ]
            group.ingest(sections)
            for slot, keys, weights in sections:
                refs[slot].ingest_multi(keys, weights)
        elif op[0] == "fold":
            slot, shared = op[1], group.shared
            group.finalize(slot)
            if shared and group.shared:  # one fold for every slot
                for ref in refs:
                    ref.finalize()
            else:
                refs[slot].finalize()
                aligned &= not shared  # a split mid-fold
        elif op[0] == "reset":
            group.drop(op[1])
            refs[op[1]] = make()
        else:
            states = [group.checkpoint_state(s) for s in range(n_slots)]
            group = SlotSummarizers(make, n_slots)
            for slot, state in enumerate(states):
                if state.buffered_events:
                    group.restore(slot, state)
            refs = [
                ShardedSummarizer.from_checkpoint(ref.checkpoint_state())
                for ref in refs
            ]
        for slot, ref in enumerate(refs):
            if aligned:  # row counts and chunks depend on fold moments
                assert group.events(slot) == ref.buffered_events
                same_chunks(
                    group.checkpoint_state(slot), ref.checkpoint_state()
                )
    for slot, ref in enumerate(refs):
        got, want = group.sketch_bundle(slot).sketches, ref.sketches()
        assert list(got) == list(want)
        for name in want:
            assert got[name].equals(want[name]), (slot, name)
            assert got[name].keys.dtype == want[name].keys.dtype
        same_chunks(group.checkpoint_state(slot), ref.checkpoint_state())
        assert group.events(slot) == ref.buffered_events


CASES = {
    "kind": st.sampled_from(sorted(KEY_KINDS)),
    "family": st.sampled_from([IppsRanks(), ExponentialRanks()]),
    "k": st.integers(1, 4),
    "plan": plans(),
}


@seed(20261020)
@given(**CASES)
def test_a_slotted_table_reads_as_one_summarizer_per_slot(
    kind, family, k, plan
):
    run(kind, family, k, *plan)


# two slots, each with three keys of weight 1.0: at k = 1 each slot keeps
# its own two entries; a table keeping two entries overall loses some
BOTH_SLOTS = [("ingest", [
    (0, [0, 2, 4], {"h1": [1.0] * 3, "h2": [2.0] * 3}),
    (1, [1, 3, 5], {"h1": [1.0] * 3, "h2": [2.0] * 3}),
])]


def test_the_table_keeps_k_plus_one_entries_per_slot():
    run("int64", IppsRanks(), 1, 2, BOTH_SLOTS)


def test_the_property_catches_a_table_keeping_k_plus_one_overall(
    monkeypatch,
):
    def overall(ranks, tiebreak, slots, limit, keys=None):
        best = np.lexsort((tiebreak, ranks))[:limit]
        return best[np.lexsort((tiebreak[best], ranks[best], slots[best]))]

    monkeypatch.setattr(sharded, "_smallest_per_slot", overall)
    with pytest.raises(AssertionError):
        run("int64", IppsRanks(), 1, 2, BOTH_SLOTS)

    @seed(20261020)
    @settings(phases=[Phase.generate], database=None)  # no shrinking
    @given(**CASES)
    def the_property(kind, family, k, plan):
        run(kind, family, k, *plan)

    with pytest.raises(AssertionError):
        the_property()


def test_a_key_in_a_second_slot_splits_the_table_exactly():
    ops = [
        ("ingest", [(0, [0, 2], {"h1": [1.0, 2.0]}),
                    (1, [1], {"h1": [3.0]})]),
        ("fold", 0),
        ("ingest", [(1, [2], {"h1": [4.0]})]),  # key 2 is slot 0's
    ]
    run("int64", IppsRanks(), 2, 2, ops)
    group = SlotSummarizers(
        lambda slots=None: ShardedSummarizer(2, NAMES, slots=slots), 2
    )
    group.ingest([(0, [0], {"h1": [1.0]})])
    group.ingest([(1, [0], {"h1": [1.0]})])
    assert group.shared
    group.finalize(0)
    assert not group.shared


def test_a_slotted_summarizer_refuses_what_it_cannot_hold():
    engine = ShardedSummarizer(2, NAMES, slots=2)
    with pytest.raises(ValueError, match="per slot"):
        engine.ingest_multi([1, 2], {"h1": [1.0, 1.0]})
    with pytest.raises(ValueError, match="one id"):
        engine.ingest_multi([1, 2], {"h1": [1.0, 1.0]}, slots=[0, 2])
    engine.ingest_multi([1, 2], {"h1": [1.0, 1.0]}, slots=0)
    with pytest.raises(ValueError, match="key form"):
        engine.ingest_multi(["a"], {"h1": [1.0]}, slots=1)
    with pytest.raises(ValueError, match="per slot"):
        engine.summary()
    with pytest.raises(ValueError, match="no slots"):
        ShardedSummarizer(2, NAMES).ingest_multi([1], {"h1": [1.0]}, slots=0)


def test_generic_keys_hold_the_slots_one_summarizer_each():
    group = SlotSummarizers(
        lambda slots=None: ShardedSummarizer(2, NAMES, slots=slots), 2
    )
    group.ingest([(0, ["a"], {"h1": [1.0]}), (1, ["b"], {"h1": [2.0]})])
    assert not group.shared
    run("str", IppsRanks(), 2, 2, [
        ("ingest", [(0, [0, 2], {"h1": [1.0, 2.0]}),
                    (1, [1], {"h1": [3.0]})]),
        ("fold", 1),
    ])


@pytest.mark.parametrize("weights", [
    # equal totals, unequal sections: one key short, one key over
    ([1.0], [2.0, 3.0]),
    # a section's weights not 1-D
    ([[1.0], [2.0]], [3.0]),
])
def test_each_section_is_checked_against_its_own_keys(weights):
    group = SlotSummarizers(
        lambda slots=None: ShardedSummarizer(2, NAMES, slots=slots), 2
    )
    with pytest.raises(ValueError, match="equal length"):
        group.ingest([
            (0, [0, 2], {"h1": weights[0]}), (1, [1], {"h1": weights[1]}),
        ])
    assert group.shared and group.events(0) == group.events(1) == 0


def test_an_empty_section_is_checked_too():
    group = SlotSummarizers(
        lambda slots=None: ShardedSummarizer(2, NAMES, slots=slots), 2
    )
    with pytest.raises(ValueError, match="unknown assignment"):
        group.ingest([(0, [0], {"h1": [1.0]}), (1, [], {"h9": []})])
    assert group.events(0) == 0
