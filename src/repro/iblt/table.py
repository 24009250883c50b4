"""The Invertible Bloom Lookup Table.

Each cell stores ``(count, key_xor, check_xor)`` exactly as described in
Section 2 of the paper: the number of keys hashed to the cell, the XOR of
those keys, and the XOR of a fixed-width checksum of those keys.  Deleting a
key is the same operation with the count decremented, so counts can go
negative; a table can therefore represent the *signed difference* of two
sets, which is how set reconciliation uses it (insert Alice's elements,
delete Bob's, peel what remains).

Cells live in the one NumPy cell store (:mod:`repro.iblt.backends`), which
hashes and scatters whole key arrays at once.  :meth:`IBLT.insert_batch` and
:meth:`IBLT.delete_batch` feed it whole key batches in one scatter;
:meth:`IBLT.subtract` and :meth:`IBLT.merge` combine tables cell-wise through
it (``NumpyCellStore.combine``); the single-key methods remain for
incremental callers.

Counts are kept modulo ``2**count_bits``: a sent table carries only the low
``count_bits`` bits of each count, so every count is read as its signed
residue (:func:`~repro.iblt.backends.count_residue`).  Peeling repeatedly
extracts "pure" cells (``count ≡ ±1 (mod 2**count_bits)`` with a key
checksum matching the cell checksum) until the table is empty or stuck.  The
peeler works in rounds: each round finds every currently pure cell in one
vectorized scan, then removes all the recovered keys in one batch update.
The two failure modes of the paper are surfaced distinctly: a peeling
failure leaves the table non-empty and is always detected; a checksum
failure is caught when the final table is not structurally empty or by the
caller's whole-set hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import islice

from repro.errors import DecodeError, ParameterError
from repro.hashing import Checksum, HashFamily, derive_seed
from repro.iblt import backends as _backends
from repro.iblt import codec as _codec
from repro.iblt.sizing import NUM_HASHES, cells_for_difference


@dataclass(frozen=True)
class IBLTParameters:
    """Configuration that both parties must share for their IBLTs to combine.

    Parameters
    ----------
    num_cells:
        Number of cells ``m``.
    key_bits:
        Width of keys in bits.  Keys are non-negative integers below
        ``2**key_bits``.
    seed:
        Shared seed (public coins) from which the bucket hash functions and
        the cell checksum function are derived.
    num_hashes:
        Number of hash functions ``k``.
    checksum_bits:
        Width of the per-key checksum stored (XORed) in each cell.  It is
        sized to keep false pure cells rare next to peeling failures, not to
        rule them out: the callers' whole-set hash turns any wrong answer into
        a detected failure (see ``docs/protocols.md`` for the measured rates).
        8 to 64 bits: a checksum is one word of the cell store.
    count_bits:
        Width of the cell count, 4 to 64 bits.  Counts are kept modulo
        ``2**count_bits`` and read as signed residues in
        ``[-2**(count_bits-1), 2**(count_bits-1))``, so a table serializes
        whatever its counts; a pure cell is one whose count is ``±1``
        modulo ``2**count_bits``.
    """

    num_cells: int
    key_bits: int
    seed: int
    num_hashes: int = NUM_HASHES
    checksum_bits: int = 16
    count_bits: int = 4

    def __post_init__(self) -> None:
        if self.num_cells < self.num_hashes:
            raise ParameterError("num_cells must be at least num_hashes")
        if self.key_bits <= 0:
            raise ParameterError("key_bits must be positive")
        if self.num_hashes < 2:
            raise ParameterError("num_hashes must be at least 2")
        if not 8 <= self.checksum_bits <= 64:
            raise ParameterError("checksum_bits must lie in [8, 64]")
        if not 4 <= self.count_bits <= 64:
            raise ParameterError("count_bits must lie in [4, 64]")

    @classmethod
    def for_difference(
        cls,
        difference_bound: int,
        key_bits: int,
        seed: int,
        num_hashes: int = NUM_HASHES,
        checksum_bits: int = 16,
        count_bits: int = 4,
    ) -> "IBLTParameters":
        """Parameters sized (via :func:`cells_for_difference`) for ``d`` keys."""
        cells = cells_for_difference(max(1, difference_bound), num_hashes)
        return cls(
            num_cells=cells,
            key_bits=key_bits,
            seed=seed,
            num_hashes=num_hashes,
            checksum_bits=checksum_bits,
            count_bits=count_bits,
        )

    @property
    def cell_bits(self) -> int:
        """Serialized width of a single cell in bits."""
        return self.count_bits + self.key_bits + self.checksum_bits

    @property
    def size_bits(self) -> int:
        """Serialized width of the whole table in bits."""
        return self.num_cells * self.cell_bits


@dataclass
class DecodeResult:
    """Outcome of attempting to decode an IBLT.

    Attributes
    ----------
    success:
        True if the peeling emptied the table.
    positive:
        Keys recovered with positive count (inserted more often than deleted;
        for reconciliation these are ``S_A \\ S_B``).
    negative:
        Keys recovered with negative count (``S_B \\ S_A``).
    """

    success: bool
    positive: set[int] = field(default_factory=set)
    negative: set[int] = field(default_factory=set)

    def symmetric_difference_size(self) -> int:
        """Number of keys recovered on either side."""
        return len(self.positive) + len(self.negative)


#: The smallest region a fold ladder descends to: below it a rung is too
#: small to peel the differences any sensible start rule sends it.
MIN_RUNG_REGION = 8


@lru_cache(maxsize=256)
def resized(params: IBLTParameters, num_cells: int) -> IBLTParameters:
    """``params`` at another cell count (same seed, widths and hash count):
    what a fold or an unfold of a ``params`` table is built with."""
    return replace(params, num_cells=num_cells)


@lru_cache(maxsize=64)
def fold_ladder(top: IBLTParameters) -> tuple[IBLTParameters, ...]:
    """The rungs a ``top`` table folds down to, smallest first, ``top`` last.

    Each rung halves the one above it, for as long as every region halves
    evenly and keeps at least :data:`MIN_RUNG_REGION` cells: 128 cells at
    four hashes give 32 / 64 / 128.  A top whose regions do not halve (52
    cells: regions of 13) is a ladder of one rung.
    """
    regions = top.num_hashes
    region = top.num_cells // regions
    rungs = [top]
    if top.num_cells % regions == 0:
        while region % 2 == 0 and region // 2 >= MIN_RUNG_REGION:
            region //= 2
            rungs.append(resized(top, region * regions))
    return tuple(reversed(rungs))


def foldable(params: IBLTParameters) -> IBLTParameters:
    """``params`` with regions rounded up to ``r0 * 2**j`` cells, ``8 <= r0 < 16``.

    That is the shape whose :func:`fold_ladder` halves all the way down to
    regions of ``r0``, at the cost of at most 1/8 more cells.  A table with
    regions under ``2 * MIN_RUNG_REGION`` cells (or unequal ones) cannot fold
    and is returned as it is.
    """
    region, uneven = divmod(params.num_cells, params.num_hashes)
    if uneven or region < 2 * MIN_RUNG_REGION:
        return params
    step = 1 << ((region // MIN_RUNG_REGION).bit_length() - 1)  # 2**j <= region / 8
    return resized(params, params.num_hashes * step * -(-region // step))


@lru_cache(maxsize=256)
def _hashers(params: IBLTParameters) -> tuple[HashFamily, Checksum]:
    """The bucket hash family and cell checksum of ``params``, derived once
    per parameter set per process (``num_hashes + 3`` BLAKE2b calls).
    Neither is ever mutated, so tables share them, as copies always have."""
    family = HashFamily(
        derive_seed(params.seed, "iblt-buckets"), params.num_hashes, params.num_cells
    )
    return family, Checksum(derive_seed(params.seed, "iblt-checksum"), params.checksum_bits)


class IBLT:
    """An Invertible Bloom Lookup Table over fixed-width integer keys.

    Parameters
    ----------
    params:
        Shared table configuration.
    backend:
        ``None``, ``"auto"`` or ``"numpy"``: all name the one cell store, so
        the name is checked and dropped.  Any other name raises
        :class:`~repro.errors.ParameterError`.
    """

    def __init__(self, params: IBLTParameters, backend: str | None = None) -> None:
        _backends.check_backend(backend)
        self.params = params
        self._store = _backends.NumpyCellStore(
            params.num_cells, params.count_bits, params.key_bits
        )
        self._family, self._checksum = _hashers(params)

    @property
    def backend(self) -> str:
        """Name of the cell store: ``"numpy"``."""
        return self._store.name

    # -- construction helpers ------------------------------------------------------

    @classmethod
    def from_items(
        cls, params: IBLTParameters, items, backend: str | None = None
    ) -> "IBLT":
        """Build a table with every item of ``items`` inserted ("encode a set")."""
        table = cls(params, backend=backend)
        table.insert_batch(items)
        return table

    def copy(self) -> "IBLT":
        """Deep copy of the table (shares the immutable parameters and hashers)."""
        clone = IBLT.__new__(IBLT)
        clone.params = self.params
        clone._family = self._family
        clone._checksum = self._checksum
        clone._store = self._store.copy()
        return clone

    # -- mutation -------------------------------------------------------------------

    def _validate_key(self, key: int) -> None:
        _backends._validate_key_scalar(key, self.params.key_bits)

    def _update(self, key: int, delta: int) -> None:
        self._validate_key(key)
        self._store.apply(
            self._family.cells_for(key), key, self._checksum.of_key(key), delta
        )

    def insert(self, key: int) -> None:
        """Add a key to the table."""
        self._update(key, +1)

    def delete(self, key: int) -> None:
        """Remove a key from the table (counts may go negative)."""
        self._update(key, -1)

    def _update_batch(self, keys, delta: int) -> None:
        prepared = self._store.prepare_keys(keys, self.params.key_bits)
        self._store.apply_batch(prepared, delta, self._family, self._checksum)

    def insert_batch(self, keys) -> None:
        """Insert a whole batch of keys through the store's scatter path."""
        self._update_batch(keys, +1)

    def delete_batch(self, keys) -> None:
        """Delete a whole batch of keys through the store's scatter path."""
        self._update_batch(keys, -1)

    #: Chunk size for the streaming insert_all/delete_all wrappers: large
    #: enough to amortize the vectorized scatter, small enough to keep the
    #: memory of unbounded iterables constant.
    _STREAM_CHUNK = 1 << 16

    def _update_all(self, keys, delta: int) -> None:
        iterator = iter(keys)
        while chunk := list(islice(iterator, self._STREAM_CHUNK)):
            self._update_batch(chunk, delta)

    def insert_all(self, keys) -> None:
        """Insert every key of an iterable.

        Routed through :meth:`insert_batch` in bounded chunks, so arbitrary
        (even unbounded) iterables stream in constant memory while still
        getting the store's batch scatter path.  On a validation error,
        chunks before the offending one remain applied.
        """
        self._update_all(keys, +1)

    def delete_all(self, keys) -> None:
        """Delete every key of an iterable (streaming counterpart of
        :meth:`delete_batch`; see :meth:`insert_all`)."""
        self._update_all(keys, -1)

    # -- combination ----------------------------------------------------------------

    def _check_compatible(self, other: "IBLT") -> None:
        if self.params != other.params:
            raise ParameterError("cannot combine IBLTs with different parameters")

    def subtract(self, other: "IBLT") -> "IBLT":
        """Return a new table representing ``self - other``.

        If ``self`` encodes Alice's set and ``other`` encodes Bob's, the
        result encodes the signed symmetric difference and can be decoded to
        recover it (the "combine Alice and Bob's IBLTs" operation of
        Section 2).
        """
        self._check_compatible(other)
        result = self.copy()
        result._store.combine(other._store, -1)
        return result

    def merge(self, other: "IBLT") -> "IBLT":
        """Return a new table representing the sum ``self + other``."""
        self._check_compatible(other)
        result = self.copy()
        result._store.combine(other._store, +1)
        return result

    # -- folding --------------------------------------------------------------------

    def _with_store(self, params: IBLTParameters, store: _backends.NumpyCellStore) -> "IBLT":
        table = IBLT.__new__(IBLT)
        table.params = params
        table._family, table._checksum = _hashers(params)
        table._store = store
        return table

    def _check_regions(self, divisor: int) -> None:
        """Refuse a table whose regions are unequal or not a multiple of ``divisor``."""
        regions = self.params.num_hashes
        if self.params.num_cells % (regions * divisor):
            raise ParameterError(
                f"a {self.params.num_cells}-cell table has no equal regions "
                f"of a multiple of {divisor} over {regions} hashes"
            )

    def fold(self, num_cells: int) -> "IBLT":
        """The table of the same keys at ``num_cells`` cells, in O(cells).

        Hash ``i`` maps a key to ``start_i + mix % size`` with seeds that do
        not depend on the cell count, and (x mod 2r) mod r = x mod r: adding
        each region's cell ``j + r`` into cell ``j`` halves a table exactly.
        ``num_cells`` must be the table's own size divided by a divisor of
        its region size; the result equals ``IBLT.from_items`` at that size.
        """
        regions = self.params.num_hashes
        if num_cells <= 0 or num_cells % regions or self.params.num_cells % num_cells:
            raise ParameterError(
                f"a {self.params.num_cells}-cell table does not fold to {num_cells} "
                f"cells over {regions} regions"
            )
        return self._with_store(
            resized(self.params, num_cells), self._store.folded(regions, num_cells)
        )

    def upper_half(self) -> "IBLT":
        """The upper half of every region, as a table of half the cells: what
        this table adds over :meth:`fold` to half its size (a ladder's growth
        step sends exactly this)."""
        self._check_regions(2)
        return self._with_store(
            resized(self.params, self.params.num_cells // 2),
            self._store.upper_half(self.params.num_hashes),
        )

    def unfold(self, upper: "IBLT") -> "IBLT":
        """The table of twice the cells whose fold is ``self`` and whose
        :meth:`upper_half` is ``upper``: each region's lower half is
        ``self - upper``, its upper half ``upper``."""
        self._check_compatible(upper)
        self._check_regions(1)
        return self._with_store(
            resized(self.params, 2 * self.params.num_cells),
            self._store.unfolded(upper._store, self.params.num_hashes),
        )

    # -- inspection -----------------------------------------------------------------

    def is_structurally_empty(self) -> bool:
        """True if every cell is all-zero (no keys remain, barring cancellation)."""
        return self._store.is_empty()

    # -- decoding -------------------------------------------------------------------

    def try_decode(self) -> DecodeResult:
        """Peel the table and report what was recovered.

        The table itself is not modified; peeling happens on a working copy.
        The whole peeling loop runs inside the store
        (:meth:`~repro.iblt.backends.NumpyCellStore.peel_rounds`): every
        currently pure cell is found in one scan, then all recovered keys
        are removed in one batch update, round after round, as vector
        operations; this method only collects the recovered keys.  On a
        failed peel the partial sets are kept (useful to the cascading
        protocol) but flagged.
        """
        work = self.copy()
        positive, negative = work._store.peel_rounds(work._checksum, work._family)
        return DecodeResult(work._store.is_empty(), set(positive), set(negative))

    def decode(self) -> tuple[set[int], set[int]]:
        """Peel the table; raise :class:`DecodeError` if it does not empty."""
        result = self.try_decode()
        if not result.success:
            raise DecodeError(
                f"IBLT with {self.params.num_cells} cells failed to decode"
            )
        return result.positive, result.negative

    # -- serialization ---------------------------------------------------------------

    @property
    def size_bits(self) -> int:
        """Serialized size in bits (what a protocol pays to transmit this table)."""
        return self.params.size_bits

    def serialize(self) -> int:
        """Canonical fixed-width integer encoding of the table contents.

        The encoding packs cells from index 0 upward, each as
        ``count (mod 2**count_bits) || key_xor || check_xor``.  Because the
        width is fully determined by the parameters, a serialized table can be
        used as a fixed-width key of a *parent* IBLT (Section 3.2).  The
        store's arrays are packed as bit planes (:mod:`repro.iblt.codec`).
        """
        counts, key_xor, check_xor = self._store.dense_cells()
        return _codec.pack_rows(self.params, counts[None], key_xor[None], check_xor[None])[0]

    @classmethod
    def deserialize(
        cls, params: IBLTParameters, encoded: int, backend: str | None = None
    ) -> "IBLT":
        """Inverse of :meth:`serialize`; the store takes the unpacked arrays
        as they are."""
        if encoded < 0 or encoded.bit_length() > params.size_bits:
            raise ParameterError("encoded value does not match the parameters")
        table = cls(params, backend=backend)
        table._store.load_dense(*_codec.unpack_row(params, encoded))
        return table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IBLT):
            return NotImplemented
        return (
            self.params == other.params
            and self._store.snapshot() == other._store.snapshot()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        occupied = sum(1 for count in self._store.snapshot()[0] if count != 0)
        return (
            f"IBLT(cells={self.params.num_cells}, key_bits={self.params.key_bits}, "
            f"occupied={occupied})"
        )
