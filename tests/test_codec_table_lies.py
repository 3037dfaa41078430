"""Hostile bytes against the codec's schema table.

Every kind's header is checked against its row of ``codec._KINDS``
before a buffer is read, whether the bytes were stored or came off the
network.  For one valid blob of every kind and variant (the pinned
objects of ``tests/test_codec_kind_bytes.py``), each declared header
field and each buffer spec is made to lie under a valid checksum:

* a field set to each value of a palette its rule refuses (a wrong
  type or an out-of-range value), to any JSON value (a Hypothesis
  property with a fixed seed), or missing;
* a buffer whose count runs beyond its bytes, whose dtype is swapped,
  whose offset or ``nbytes`` runs past the end, whose encoding is
  another, or that is missing (when required) or extra.

Each lie must end in a :class:`CodecError` that names the kind and the
field or buffer, and the decode that refuses it may allocate no more
than twice the blob plus a small constant (``tracemalloc``).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.store.codec import _KINDS, CodecError, _BlobReader, decode
from tests.test_codec_kind_bytes import BLOBS
from tests.test_ingest_frames import reheader

#: what a refused decode may allocate beyond twice the blob
SLACK = 64 << 10


def kind_of(case: str) -> str:
    return case.split("-")[0]


def declared(case: str) -> dict:
    """Each buffer the valid blob's header calls for, by name."""
    reader = _BlobReader(BLOBS[case], writable=False, verify=True)
    return dict(_KINDS[reader.kind].buffers(reader.meta))


def refuse(blob: bytes, kind: str, field: str) -> None:
    """``blob`` is refused with a message naming ``kind`` and ``field``,
    and the refusal allocates little."""
    tracemalloc.start()
    try:
        with pytest.raises(CodecError) as err:
            decode(blob, verify=True)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    message = str(err.value)
    assert kind in message and f"{field!r}" in message, message
    assert peak < 2 * len(blob) + SLACK, (peak, len(blob))


def buffer_lies(spec: dict, dtype_size: int):
    """``(what, spec edit)`` for every lie one buffer spec can tell."""
    enc = spec["enc"]
    yield "offset-past-end", {"offset": 1 << 40}
    yield "nbytes-past-end", {"nbytes": 1 << 40}
    yield "negative-offset", {"offset": -16}
    yield "offset-not-int", {"offset": str(spec["offset"])}
    yield "other-encoding", {"enc": "blob" if enc != "blob" else "raw"}
    if enc == "obj":
        yield "count-beyond-bytes", {"count": spec["nbytes"] + 1}
        yield "count-not-int", {"count": float(spec["count"])}
    if enc == "raw":
        yield "count-beyond-bytes", {"shape": [1 << 40] + spec["shape"][1:]}
        yield "shape-not-a-list", {"shape": 3}
        yield "swapped-dtype", {"dtype": "<f4" if dtype_size != 4 else "<f8"}
        yield "object-dtype", {"dtype": "|O"}
        yield "no-such-dtype", {"dtype": "no-such-dtype"}


CASES = sorted(BLOBS)


@pytest.mark.parametrize("case", CASES)
def test_every_buffer_lie_names_the_buffer(case):
    kind = kind_of(case)
    reader = _BlobReader(BLOBS[case], writable=False, verify=True)
    buffers = declared(case)
    for name, spec in reader.arrays.items():
        size = np.dtype(spec["dtype"]).itemsize if spec["enc"] == "raw" else 0
        for _what, change in buffer_lies(spec, size):
            edit = lambda h, n=name, c=change: h["arrays"][n].update(c)
            refuse(reheader(BLOBS[case], edit), kind, name)
        # extra: the same bytes under a name no row declares
        edit = lambda h, n=name: h["arrays"].update(extra=dict(h["arrays"][n]))
        refuse(reheader(BLOBS[case], edit), kind, "extra")
        if not buffers[name].optional:
            edit = lambda h, n=name: h["arrays"].pop(n)
            refuse(reheader(BLOBS[case], edit), kind, name)


#: JSON values of every type, each in range for some rules and out of it
#: for others
PALETTE = [
    None, True, False, 0, 1, -3, 2**70, 1.5, "", "x", "ipps", "bundle",
    "colocated", [], ["h1"], ["h1", "h1"], [1, 2], [[]], [[-1]], [[2, 1]],
    [["web", "deleted", "t"]], [["web", "bundle", "t"]], {"k": 1},
]


def field_lie(case: str, field: str, value) -> None:
    """``field`` set to ``value``: refused and named when its rule
    refuses the value, else decoded or refused as a :class:`CodecError`."""
    kind = kind_of(case)
    blob = reheader(BLOBS[case], lambda h: h["meta"].update({field: value}))
    if not _KINDS[kind].fields[field].check(value):
        refuse(blob, kind, field)
        return
    try:
        decode(blob, verify=True)
    except CodecError:
        pass


@pytest.mark.parametrize("case", CASES)
def test_every_field_lie_is_named(case):
    kind = kind_of(case)
    for field, rule in _KINDS[kind].fields.items():
        refused = [value for value in PALETTE if not rule.check(value)]
        assert refused, f"no lie in the palette for {kind}.{field}"
        for value in PALETTE:
            field_lie(case, field, value)
        refuse(reheader(BLOBS[case], lambda h: h["meta"].pop(field)),
               kind, field)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@seed(20261019)
@settings(deadline=None)
@given(case=st.sampled_from(CASES), pick=st.integers(min_value=0),
       value=json_values)
def test_any_json_value_in_any_field(case, pick, value):
    fields = list(_KINDS[kind_of(case)].fields)
    if fields:  # a Poisson sketch's header has no fields
        field_lie(case, fields[pick % len(fields)], value)
