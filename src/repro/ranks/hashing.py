"""Deterministic keyed hashing of keys to uniform seeds in (0, 1).

Dispersed-weights coordination (Section 4 of the paper) requires that the
sampling processes of different weight assignments — which may run at
different times or locations and cannot communicate — nevertheless use the
*same* seed ``u(i)`` for the same key ``i``.  The standard device is a
shared hash function: every process hashes the key identifier to a value
``u(i) ∈ (0, 1)`` and feeds it through the inverse CDF of its own weight.

We implement a splitmix64-style finalizer, which is fast, has full 64-bit
avalanche behaviour, and is more than "random-looking" enough for the
perfect-randomness analysis the paper (Section 4, "Computing coordinated
sketches") relies on.
"""

from __future__ import annotations

import struct
from typing import Hashable, Iterable, Sequence

import numpy as np

__all__ = [
    "splitmix64",
    "splitmix64_array",
    "hash_to_unit",
    "as_key_array",
    "key_array_to_uint64",
    "tie_order",
    "KeyHasher",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF

# 2**-64 scaled so results land strictly inside (0, 1): we map the 64-bit
# state x to (x + 0.5) * 2**-64, which can never be exactly 0.0 or 1.0.
_INV_2_64 = 1.0 / 18446744073709551616.0


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixing function (public-domain constants).

    Maps a 64-bit integer to a 64-bit integer with full avalanche: flipping
    any input bit flips each output bit with probability ~1/2.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`splitmix64` over a ``uint64`` array.

    Bit-identical to the scalar function: ``uint64`` arithmetic wraps
    modulo 2**64 exactly like the masked Python-int arithmetic.

    >>> int(splitmix64_array(np.array([42], dtype=np.uint64))[0]) \\
    ...     == splitmix64(42)
    True
    """
    x = x.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _object_array(keys: list) -> np.ndarray:
    arr = np.empty(len(keys), dtype=object)
    for pos, key in enumerate(keys):
        if isinstance(key, float) and key != key:
            raise ValueError(
                f"NaN key at position {pos}; NaN is never equal to itself, "
                "so it cannot serve as a key identity"
            )
        arr[pos] = key
    return arr


def _canonical_float_keys(arr: np.ndarray) -> np.ndarray:
    """Fold integral float keys to ints, mirroring ``_key_to_int``.

    ``1.0`` is the same Python dict/set key as ``1``, so it must also be
    the same sampler key; arrays whose values are all integral (the
    common "ids arrived as a float column" case) become int64 wholesale,
    mixed arrays fall back to per-element canonicalization.
    """
    arr = arr.astype(np.float64)
    nan = np.isnan(arr)
    if nan.any():
        raise ValueError(
            f"NaN key at position {int(np.flatnonzero(nan)[0])}; NaN is "
            "never equal to itself, so it cannot serve as a key identity"
        )
    finite = np.isfinite(arr)
    integral = finite & (np.floor(arr) == arr)
    if not integral.any():
        return arr
    if integral.all() and bool((np.abs(arr) < 2.0**63).all()):
        return arr.astype(np.int64)
    return _object_array(
        [int(value) if value.is_integer() else value for value in arr.tolist()]
    )


def as_key_array(keys) -> np.ndarray:
    """Coerce a key container to a 1-D numpy array without mangling keys.

    Key identity follows Python equality, so coercion must never change a
    key's hash: mixed-type lists (where ``np.asarray`` would silently
    promote ``[1, "a"]`` to strings and ``[1, 2.5]`` to floats), tuple
    keys (which ``np.asarray`` would explode into a 2-D array), ``int``
    lists that straddle 2**63 (which it would round to float64) and
    ``str`` / ``bytes`` lists with a trailing NUL (which its fixed-width
    dtypes drop) are kept as object arrays of the original values, and
    integral float keys are folded to ints (``1.0`` and ``1`` are the
    same key).
    """
    if isinstance(keys, np.ndarray):
        arr = keys
    else:
        keys = list(keys)
        key_types = {type(key) for key in keys}
        if len(key_types) > 1:
            arr = _object_array(keys)
        else:
            try:
                arr = np.asarray(keys)
            except (ValueError, TypeError):
                arr = None
            if (
                arr is None
                or arr.ndim != 1
                or (arr.dtype.kind == "f" and int in key_types)
                or (arr.dtype.kind in "US" and arr.tolist() != keys)
            ):
                arr = _object_array(keys)
    if arr.ndim != 1:
        raise ValueError(f"keys must be one-dimensional, got shape {arr.shape}")
    if np.issubdtype(arr.dtype, np.floating):
        arr = _canonical_float_keys(arr)
    return arr


def key_array_to_uint64(keys: np.ndarray) -> np.ndarray | None:
    """Vectorized key→uint64 serialization for numeric key arrays.

    Matches ``_key_to_int`` applied to ``keys.tolist()`` (numpy scalars
    widen to Python ``int``/``float``/``bool`` there): signed ints are
    two's-complement folded, unsigned ints pass through, floats use their
    IEEE-754 double bit pattern.  Callers must route float arrays through
    :func:`as_key_array` first, which folds integral floats to ints (only
    non-integral values may take the bit-pattern branch).  Returns ``None``
    for dtypes that need the per-key fallback (strings, objects).
    """
    if keys.dtype == np.bool_:
        return keys.astype(np.uint64) + np.uint64(0xB001)
    if np.issubdtype(keys.dtype, np.signedinteger):
        return keys.astype(np.int64).view(np.uint64)
    if np.issubdtype(keys.dtype, np.unsignedinteger):
        return keys.astype(np.uint64)
    if np.issubdtype(keys.dtype, np.floating):
        return np.ascontiguousarray(keys.astype(np.float64)).view(np.uint64)
    return None


def _key_to_int(key: Hashable) -> int:
    """Serialize a key to a 64-bit integer deterministically across runs.

    Python's builtin ``hash`` is salted per process for str/bytes, so it
    cannot be used for cross-process coordination.  We fold the key's byte
    representation through splitmix64 instead.
    """
    if isinstance(key, (bool, np.bool_)):
        # bool is an int subclass; deliberately kept distinct from 0/1
        # (although True == 1 under Python equality — never mix bool and
        # int representations of one logical key).
        return 0xB001 + int(key)
    if isinstance(key, (int, np.integer)):
        # np.integer included: object arrays hand numpy scalars through
        # unwidened, and np.int64(1) must name the same key as 1.
        return int(key) & _MASK64
    if isinstance(key, (float, np.floating)):
        key = float(key)
        if key.is_integer():
            # Python equality makes 1.0 the same dict/set key as 1 (and the
            # samplers' duplicate guards already treat them as one key), so
            # integral floats must hash like their int counterpart.
            return int(key) & _MASK64
        (as_int,) = struct.unpack("<Q", struct.pack("<d", key))
        return as_int
    if isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, bytes):
        data = key
    elif isinstance(key, tuple):
        acc = 0x7E3779B9
        for part in key:
            acc = splitmix64(acc ^ _key_to_int(part))
        return acc
    else:
        data = repr(key).encode("utf-8")
    acc = 0xCBF29CE484222325
    for offset in range(0, len(data), 8):
        chunk = data[offset : offset + 8]
        (word,) = struct.unpack("<Q", chunk.ljust(8, b"\0"))
        acc = splitmix64(acc ^ word ^ len(chunk))
    return acc


def tie_order(key: Hashable) -> tuple:
    """Sort key of one total order over keys of every type.

    Keys of different types can hash alike — a ``str`` and its UTF-8
    ``bytes`` always do, and so do tuples that differ only in that way —
    so two such keys of equal weight tie on rank *and* seed, where Python
    cannot compare them.  The samplers break such a full tie with this
    order: numbers (bool, int, float) before ``str`` before ``bytes``
    before tuples (component by component) before any other key (by type
    name, then ``repr``).  Keys of one type keep Python's own order.

    >>> sorted([b"a", ("a",), "a", 2], key=tie_order)
    [2, 'a', b'a', ('a',)]
    """
    if isinstance(key, (bool, int, float, np.bool_, np.integer, np.floating)):
        return (0, key)
    if isinstance(key, str):
        return (1, key)
    if isinstance(key, bytes):
        return (2, key)
    if isinstance(key, tuple):
        return (3, tuple(map(tie_order, key)))
    return (4, type(key).__qualname__, repr(key))


def hash_to_unit(key: Hashable, salt: int = 0) -> float:
    """Hash ``key`` to a uniform-looking value strictly inside (0, 1).

    ``salt`` selects a member of the hash family; distinct salts give
    (practically) independent hash functions, which is how we build the k
    independent rank assignments needed for k-mins sketches.
    """
    mixed = splitmix64(_key_to_int(key) ^ splitmix64(salt & _MASK64))
    return (mixed + 0.5) * _INV_2_64


class KeyHasher:
    """A member of a keyed hash family mapping keys to seeds in (0, 1).

    Instances are cheap, stateless, and picklable; two ``KeyHasher`` objects
    with the same salt agree on every key, which is exactly the property
    dispersed-weights coordination requires.

    >>> h = KeyHasher(salt=7)
    >>> h("flow-1") == KeyHasher(salt=7)("flow-1")
    True
    >>> 0.0 < h("flow-1") < 1.0
    True
    """

    __slots__ = ("salt",)

    def __init__(self, salt: int = 0) -> None:
        self.salt = int(salt)

    def __call__(self, key: Hashable) -> float:
        return hash_to_unit(key, self.salt)

    def many(self, keys: Iterable[Hashable]) -> list[float]:
        """Hash an iterable of keys, preserving order."""
        salt = self.salt
        return [hash_to_unit(key, salt) for key in keys]

    def hash_array(self, keys: Sequence[Hashable] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`__call__` over a whole batch of keys.

        Bit-identical to ``[hash_to_unit(key, salt) for key in arr.tolist()]``
        (numpy scalars widen to Python natives there): integer, float, and
        bool dtypes take a fully vectorized splitmix64 path; strings,
        tuples, and other objects fall back to the per-key hash.

        >>> h = KeyHasher(salt=7)
        >>> bool((h.hash_array(np.arange(3)) ==
        ...       np.array([h(0), h(1), h(2)])).all())
        True
        """
        keys = as_key_array(keys)
        ints = key_array_to_uint64(keys)
        if ints is None:
            return np.array(
                [hash_to_unit(key, self.salt) for key in keys.tolist()],
                dtype=float,
            )
        mixed = splitmix64_array(ints ^ np.uint64(splitmix64(self.salt & _MASK64)))
        return (mixed.astype(np.float64) + 0.5) * _INV_2_64

    def derive(self, index: int) -> "KeyHasher":
        """Return a hasher for a derived (practically independent) family.

        Used by k-mins sampling, which needs ``k`` independent rank
        assignments: ``hasher.derive(0) ... hasher.derive(k-1)``.
        """
        return KeyHasher(splitmix64(self.salt ^ (0xA5A5A5A5 + index)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KeyHasher) and other.salt == self.salt

    def __hash__(self) -> int:
        return hash(("KeyHasher", self.salt))

    def __repr__(self) -> str:
        return f"KeyHasher(salt={self.salt})"
