"""Child-set encodings used by the structured set-of-sets protocols.

Algorithm 1 represents each child set as a *(child IBLT, hash)* pair -- the
"child encoding" -- and inserts those encodings as keys into a parent IBLT.
This module provides:

* canonical hashing of a child set (both parties compute identical hashes),
  in scalar (:func:`child_set_hash`) and batch (:func:`child_set_hash_many`)
  forms, the batch one over a party's flat batch
  (:class:`~repro.iblt.multi.FlatChildren`) when it has one;
* packing / unpacking of a child encoding into a fixed-width integer key --
  :func:`encode_children` batches the whole parent set through one
  :class:`~repro.iblt.multi.IBLTArray` pass per scheme, over one flatten,
  one validation and one child-hash pass shared by all of them;
* a per-reconcile cache of candidate child tables for the decode side
  (:class:`ChildTableCache`);
* explicit (raw) encodings of whole child sets, used by the naive protocol
  of Theorem 3.3 and the ``T*`` table of Algorithm 2, array passes over a
  flat batch (:meth:`ExplicitChildScheme.encode_batch`): a key that fits in
  a word is one ``reduceat``, and a wider key is built straight into the
  cell store's ``uint64`` limbs and handed to every table it goes into as a
  :class:`~repro.iblt.backends.KeyBatch`, whose folds are read from the
  limbs' bytes (:func:`~repro.hashing.mix.fingerprint64_rows`).  A wide key
  becomes a Python int only on the decode side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Any, Iterable, Sequence

import numpy as _np

from repro.errors import CapacityError, ParameterError
from repro.hashing import Checksum, derive_seed, mix64
from repro.hashing.mix import MASK64, fingerprint64_rows, mix64_array
from repro.iblt import IBLT, IBLTArray, IBLTParameters
from repro.iblt.backends import KeyBatch, _ints_of, _limbs_of
from repro.iblt.multi import FlatChildren

# ---------------------------------------------------------------------------
# Child-set hashing
# ---------------------------------------------------------------------------

#: Above this many children the finishing mix runs on an array (measured:
#: ~6 us of array set-up against ~0.35 us saved per child).
_MIX_ARRAY_CUTOFF = 16


@lru_cache(maxsize=256)
def _checksum(seed: int, purpose: str, bits: int) -> Checksum:
    """The ``bits``-wide checksum seeded for ``purpose``, derived once per
    ``(seed, purpose, bits)``: every hash of a session (both parties' and
    each rung's) uses the same ones, and a checksum derives its word seed
    (a BLAKE2b call) on first use only."""
    return Checksum(derive_seed(seed, purpose), bits)


def _flat(children: Iterable[Iterable[int]] | FlatChildren) -> FlatChildren:
    return children if isinstance(children, FlatChildren) else FlatChildren(children)


def _ints(values: Any) -> list[int]:
    """A key array or :class:`~repro.iblt.backends.KeyBatch`, or the list the
    per-row path made, as a list of ints."""
    if isinstance(values, KeyBatch):
        return _ints_of(values.limbs)
    return values if isinstance(values, list) else values.tolist()


def _child_hashes(flat: FlatChildren, seed: int, bits: int) -> Any:
    """:func:`child_set_hash_many` of a flat batch: one checksum pass and one
    ``reduceat`` fold the rows, and the finishing mix is one more array pass
    (a ``uint64`` array), or scalar (a list) for a few children or an
    element past 64 bits."""
    if not 1 <= bits <= 64:
        raise ParameterError("child-set hashes are 1 to 64 bits wide")
    checksum = _checksum(seed, "child-set-hash", 64)
    mask = (1 << bits) - 1
    if flat.elements is None:
        folds = checksum.of_sets(flat.rows)
    else:
        folds = flat.reduce_rows(_np.bitwise_xor, checksum.of_keys_array(flat.elements))
        if flat.num_children > _MIX_ARRAY_CUTOFF:
            # The size is added modulo 2**64, as the scalar form masks it.
            return mix64_array(folds + flat.sizes.astype(_np.uint64)) & _np.uint64(mask)
        folds = folds.tolist()
    return [
        mix64((fold + size) & MASK64) & mask for fold, size in zip(folds, flat.sizes.tolist())
    ]


def child_set_hash_many(
    children: Iterable[Iterable[int]] | FlatChildren, seed: int, bits: int
) -> list[int]:
    """Canonical ``bits``-wide hashes of many child sets, in order.

    Each hash is the order-independent fold of the child's elements (the
    XOR of their :class:`~repro.hashing.checksum.Checksum`, as
    :meth:`~repro.hashing.checksum.Checksum.of_set` folds a set) finished by
    one more mix over the fold plus the child's size, so it is identical for
    both parties whatever order they iterate in (and 0 for the empty child).
    The finishing mix is what keeps the XOR of child hashes
    (:func:`parent_hash`) from being linear in the *elements*: without it,
    moving an element from one child to another would not change the parent
    hash.  The paper asks for an ``O(log s)``-bit pairwise-independent hash;
    48 bits (the library default set by the protocols) keeps collision
    probability among ``O(s^2)`` pairs negligible for any realistic ``s``.
    ``children`` may be a :class:`~repro.iblt.multi.FlatChildren` already
    built, which is then not flattened again.
    """
    return _ints(_child_hashes(_flat(children), seed, bits))


def child_set_hash(child: Iterable[int], seed: int, bits: int) -> int:
    """Scalar form of :func:`child_set_hash_many` (identical hash values)."""
    return child_set_hash_many([child], seed, bits)[0]


def parent_hash(
    children: Iterable[Iterable[int]] | FlatChildren, seed: int, bits: int = 64
) -> int:
    """Verification hash of a whole parent set (order independent): the
    :meth:`~repro.hashing.checksum.Checksum.of_set` fold of its child hashes.

    Protocols send this tiny hash alongside their main payload so Bob can
    verify his reconstruction (the replication / verification trick described
    at the end of Section 3.2).
    """
    hashes = _child_hashes(_flat(children), seed, bits)
    return _checksum(seed, "parent-hash", bits).of_set(hashes)


# ---------------------------------------------------------------------------
# (child IBLT, hash) encodings -- keys of the parent IBLT
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChildEncodingScheme:
    """Shared description of how child sets are encoded into parent-IBLT keys.

    Parameters
    ----------
    child_params:
        IBLT parameters used for every child IBLT at this level; fully
        determines the serialized child-IBLT width.
    hash_bits:
        Width of the child-set hash appended to the serialized child IBLT.
    seed:
        Seed for the child-set hash (shared).
    """

    child_params: IBLTParameters
    hash_bits: int
    seed: int

    def __post_init__(self) -> None:
        if self.hash_bits < 8:
            raise ParameterError("hash_bits must be at least 8")

    @property
    def key_bits(self) -> int:
        """Width of a full child encoding (serialized child IBLT + hash)."""
        return self.child_params.size_bits + self.hash_bits

    def encode(self, child: Iterable[int]) -> int:
        """Encode a child set into a fixed-width integer key."""
        child = list(child)
        table = IBLT.from_items(self.child_params, child)
        serialized = table.serialize()
        return (serialized << self.hash_bits) | child_set_hash(
            child, self.seed, self.hash_bits
        )

    def encode_all(self, children: Iterable[Iterable[int]]) -> list[int]:
        """Encode many child sets (the batch form protocols feed to
        :meth:`~repro.iblt.table.IBLT.insert_batch`): the one-scheme call of
        :func:`encode_children`, bit-identical to :meth:`encode` per child.
        """
        return encode_children([self], children)[0]

    def decode(self, key: int) -> tuple[IBLT, int]:
        """Split a key back into ``(child IBLT, child hash)``."""
        if key < 0 or key.bit_length() > self.key_bits:
            raise CapacityError("encoded child key does not match the scheme")
        child_hash = key & ((1 << self.hash_bits) - 1)
        table = IBLT.deserialize(self.child_params, key >> self.hash_bits)
        return table, child_hash

    def hash_of(self, child: Iterable[int]) -> int:
        """The hash component alone (cheap lookup key)."""
        return child_set_hash(child, self.seed, self.hash_bits)


def encode_children(
    schemes: Sequence[ChildEncodingScheme],
    children: Iterable[Iterable[int]] | FlatChildren,
) -> list[list[int]]:
    """The children's keys under every scheme: ``result[i][j]`` equals
    ``schemes[i].encode(children[j])``.

    The levels of a cascade encode the same children with the same child-hash
    seed and width, so what does not depend on the scheme runs once: one
    flatten and validation (:class:`~repro.iblt.multi.FlatChildren`, or the
    one given) and one hash pass per distinct ``(seed, hash_bits)``.  Each
    scheme's child IBLTs are then built and serialized in one
    :class:`~repro.iblt.multi.IBLTArray` pass, one scheme's cell tensor at a
    time.  With no schemes the children are not read.
    """
    if not schemes:
        return []
    flat = _flat(children)
    hashes: dict[tuple[int, int], list[int]] = {}
    encoded = []
    for scheme in schemes:
        shared = (scheme.seed, scheme.hash_bits)
        if shared not in hashes:
            hashes[shared] = child_set_hash_many(flat, *shared)
        tables = IBLTArray(scheme.child_params, flat).serialize_all()
        encoded.append(
            [(table << scheme.hash_bits) | tail for table, tail in zip(tables, hashes[shared])]
        )
    return encoded


class ChildTableCache:
    """Per-reconcile cache of candidate child IBLTs for one encoding scheme.

    Bob's decode loops subtract a candidate child's table from each of
    Alice's decoded child encodings.  Rebuilding the candidate table inside
    that doubly nested loop costs ``O(d_hat^2)`` redundant table builds; this
    cache builds each candidate's table exactly once per reconcile call
    (batched through :class:`~repro.iblt.multi.IBLTArray`) and hands out the
    same table for every Alice key.  Tables handed out must not be mutated
    (subtracting *from* them is fine: :meth:`IBLT.subtract` copies).
    """

    def __init__(self, scheme: ChildEncodingScheme) -> None:
        self._scheme = scheme
        self._tables: dict[frozenset[int], IBLT] = {}

    def add_children(self, children: Iterable[Iterable[int]]) -> None:
        """Batch-build tables for any children not already cached."""
        missing: list[frozenset[int]] = []
        seen = set()
        for child in children:
            frozen = frozenset(child)
            if frozen not in self._tables and frozen not in seen:
                seen.add(frozen)
                missing.append(frozen)
        if not missing:
            return
        array = IBLTArray(self._scheme.child_params, missing)
        for index, child in enumerate(missing):
            self._tables[child] = array.table(index)

    def get(self, child: Iterable[int]) -> IBLT:
        """The candidate's table (built on first request if not yet cached)."""
        frozen = frozenset(child)
        if frozen not in self._tables:
            self.add_children([frozen])
        return self._tables[frozen]

    def __len__(self) -> int:
        return len(self._tables)


# ---------------------------------------------------------------------------
# Explicit (raw) child encodings -- the naive protocol and T*
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitChildScheme:
    """Encode a whole child set explicitly into a fixed-width integer key.

    Theorem 3.3 charges ``min(h log u, u)`` bits per child set: whichever of
    the two canonical encodings is smaller is used --

    * *bitmap*: one bit per universe element (total ``u`` bits), or
    * *packed list*: the at most ``h`` elements written as sorted
      ``1 + log u``-bit values (a leading 1 bit distinguishes "element
      present" slots from padding so sets of different sizes stay distinct).

    ``element_bits``, ``slot_bits`` and ``uses_bitmap`` follow from the two
    parameters and are computed once, when the scheme is made.
    """

    universe_size: int
    max_child_size: int
    element_bits: int = field(init=False, repr=False, compare=False)
    slot_bits: int = field(init=False, repr=False, compare=False)
    uses_bitmap: bool = field(init=False, repr=False, compare=False)
    #: The "element present" bit of each of ``h`` packed slots (0 for a bitmap).
    _present_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.universe_size <= 0:
            raise ParameterError("universe_size must be positive")
        if self.max_child_size < 0:
            raise ParameterError("max_child_size must be non-negative")
        element_bits = max(1, (self.universe_size - 1).bit_length())
        object.__setattr__(self, "element_bits", element_bits)
        object.__setattr__(self, "slot_bits", element_bits + 1)
        object.__setattr__(
            self,
            "uses_bitmap",
            self.universe_size <= self.max_child_size * (element_bits + 1),
        )
        # 1 in every slot: the repunit (B^h - 1) / (B - 1) in base B = 2^slot_bits.
        slots = 0 if self.uses_bitmap else self.max_child_size
        repunit = ((1 << (slots * self.slot_bits)) - 1) // ((1 << self.slot_bits) - 1)
        object.__setattr__(self, "_present_bits", repunit << element_bits)

    @property
    def key_bits(self) -> int:
        """Width of the explicit encoding (``min(h (log u + 1), u)``)."""
        packed = max(1, self.max_child_size * self.slot_bits)
        return min(self.universe_size, packed) if self.max_child_size else 1

    def encode(self, child: Iterable[int]) -> int:
        """The key of one child (the one-child case of :meth:`encode_many`)."""
        return self.encode_many([child])[0]

    def encode_many(self, children: Iterable[Iterable[int]]) -> list[int]:
        """The keys of many children, in order, as ints (:meth:`encode_batch`
        read back: the decode side's form)."""
        return _ints(self.encode_batch(children))

    def encode_batch(self, children: Iterable[Iterable[int]] | FlatChildren) -> Any:
        """The keys of many children, in order, in the form a table takes
        them: a ``uint64`` array when a key fits in a word, else a
        :class:`~repro.iblt.backends.KeyBatch` of ``ceil(key_bits / 64)``
        limbs per key (a list of ints only for a batch holding an element of
        ``2**64`` or more).

        ``children`` is a flat batch whose rows are sets in ascending order
        (a :class:`~repro.core.setsofsets.types.FlatSetOfSets`), or child
        sets, checked and sorted here.  A bitmap key is the OR of
        ``1 << element`` over the row; a packed key puts the row's ``j``-th
        smallest of ``n`` elements, with its present bit, in slot
        ``n - 1 - j``.  In a word either is one ``reduceat``, and so is a
        key past a word (:meth:`_key_batch`), into its limbs.  An element
        that is not a non-negative ``int`` (a ``bool`` included) raises
        :class:`ParameterError`; a row larger than ``max_child_size`` or an
        element outside the universe raises :class:`CapacityError`.
        """
        flat = children if isinstance(children, FlatChildren) else self._flat_of(children)
        limit, universe = self.max_child_size, self.universe_size
        oversized = flat.sizes[flat.sizes > limit]
        if oversized.size:
            raise CapacityError(
                f"child set of size {int(oversized[0])} exceeds max_child_size {limit}"
            )
        elements = flat.elements
        if elements is None:
            return self._encode_rows(flat.rows)
        if elements.size and int(elements.max()) >= universe:
            raise CapacityError("child set element outside the universe")
        if self.key_bits > 64:
            return self._key_batch(flat)
        if self.uses_bitmap:
            return flat.reduce_rows(_np.bitwise_or, _np.left_shift(_np.uint64(1), elements))
        slots = (elements | _np.uint64(1 << self.element_bits)) << (
            self._slots_after(flat).astype(_np.uint64) * _np.uint64(self.slot_bits)
        )
        return flat.reduce_rows(_np.bitwise_or, slots)

    @staticmethod
    def _flat_of(children: Iterable[Iterable[int]]) -> FlatChildren:
        """The flat batch of child sets, each row checked and sorted."""
        rows = [child if isinstance(child, frozenset) else set(child) for child in children]
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            for element in chain.from_iterable(rows):
                if not isinstance(element, int) or isinstance(element, bool):
                    raise ParameterError("child set elements must be integers")
        return FlatChildren(list(map(sorted, rows)))

    @staticmethod
    def _slots_after(flat: FlatChildren) -> Any:
        """Slots left of each element in its row: its row's end, less one,
        less its index (``int64``)."""
        return _np.repeat(flat.starts + flat.sizes - 1, flat.sizes) - _np.arange(
            flat.elements.size
        )

    def _key_batch(self, flat: FlatChildren) -> KeyBatch:
        """The keys past one word, built in limbs, most significant first.

        Element ``e`` of a bitmap sets bit ``e % 64`` of limb ``e // 64``
        from the right.  A packed key starts from its row size's present
        bits (:func:`_present_limbs`); each element then goes in at its
        slot's offset in two parts: its low part in the limb the offset
        falls in, and the bits that spill past that limb's top into the next
        limb up.  A row's elements are ascending, so they reach its limbs in
        limb order and the parts for one limb are adjacent (:func:`_or_runs`);
        a limb boundary is crossed by one slot at most, so the spills need no
        reduction.  Every row's fold is read from its limbs.
        """
        num_limbs = -(-self.key_bits // 64)
        elements = flat.elements
        # Each element's row, as the flat index of the row's last limb.
        last = _np.repeat(_np.arange(1, flat.num_children + 1) * num_limbs - 1, flat.sizes)
        if self.uses_bitmap:
            limbs = _np.zeros((flat.num_children, num_limbs), dtype=_np.uint64)
            positions = last - (elements >> _np.uint64(6)).astype(_np.int64)
            _or_runs(limbs, positions, _np.left_shift(_np.uint64(1), elements & _np.uint64(63)))
        else:
            limbs = _present_limbs(self)[flat.sizes]
            offsets = self._slots_after(flat) * self.slot_bits
            positions = last - (offsets >> 6)
            shifts = (offsets & 63).astype(_np.uint64)
            _or_runs(limbs, positions, elements << shifts)
            # An element of at most 64 bits reaches the next limb when its
            # shift leaves it fewer bits than it has (so the shift is >= 1).
            spill = _np.flatnonzero(shifts > _np.uint64(64 - min(self.element_bits, 64)))
            limbs.reshape(-1)[positions[spill] - 1] |= elements[spill] >> (
                _np.uint64(64) - shifts[spill]
            )
        return KeyBatch(limbs, fingerprint64_rows(limbs))

    def _encode_rows(self, rows: list) -> list[int]:
        """:meth:`encode_batch` one row at a time, as ints: for a batch with
        an element of ``2**64`` or more, which no ``uint64`` array holds."""
        limit, universe = self.max_child_size, self.universe_size
        slot_bits, present_bits = self.slot_bits, self._present_bits
        keys = []
        for ordered in rows:
            encoded = 0
            if ordered:
                if ordered[-1] >= universe:
                    raise CapacityError("child set element outside the universe")
                if self.uses_bitmap:
                    # Distinct powers of two: their sum is their OR.
                    encoded = sum(map((1).__lshift__, ordered))
                else:
                    for element in ordered:
                        encoded = (encoded << slot_bits) | element
                    encoded |= present_bits >> (slot_bits * (limit - len(ordered)))
            keys.append(encoded)
        return keys

    def decode(self, key: int) -> frozenset[int]:
        """The child set a key encodes (a slot's element is not checked
        against the universe: a peer's key can name one past it)."""
        if self.uses_bitmap:
            elements = []
            index = 0
            while key:
                if key & 1:
                    elements.append(index)
                key >>= 1
                index += 1
            return frozenset(elements)
        slot_bits = self.slot_bits
        element_mask = (1 << self.element_bits) - 1
        elements = []
        while key:
            slot = key & ((1 << slot_bits) - 1)
            if slot >> self.element_bits:
                elements.append(slot & element_mask)
            key >>= slot_bits
        return frozenset(elements)


def _or_runs(limbs: Any, positions: Any, values: Any) -> None:
    """OR ``values`` into the flat view of ``limbs`` at ``positions``, where
    equal positions are adjacent: one ``reduceat`` per run of them, then one
    OR per limb touched (no ``ufunc.at``)."""
    starts = _np.empty(positions.size, dtype=bool)
    starts[:1] = True
    _np.not_equal(positions[1:], positions[:-1], out=starts[1:])
    runs = _np.flatnonzero(starts)
    limbs.reshape(-1)[positions[runs]] |= _np.bitwise_or.reduceat(values, runs)


@lru_cache(maxsize=32)
def _present_limbs(scheme: ExplicitChildScheme) -> Any:
    """Row ``n``: the limbs of a packed key's present bits for a child of
    ``n`` elements (slots ``0 .. n - 1``), for ``n`` in ``0 .. h``.  Read
    only; indexing it by the row sizes gives each row's starting limbs."""
    limit, slot_bits = scheme.max_child_size, scheme.slot_bits
    present = scheme._present_bits
    limbs = _limbs_of(
        [present >> (slot_bits * (limit - size)) for size in range(limit + 1)],
        -(-scheme.key_bits // 64),
    )
    limbs.flags.writeable = False
    return limbs
