"""The one order-independent set fold behind every whole-set and child-set hash.

``Checksum.of_set`` / ``of_sets`` pick a scalar or a batched route from the
input; these tests hold the two routes to the same bytes, pin those bytes as
literals (no protocol test notices a changed
verification-hash value, because both parties change together), and check
the linearity the sketch store's running hash relies on.
"""

import pytest
from hypothesis import given, strategies as st

import repro.hashing.checksum as checksum_module
from repro.core.setsofsets.encoding import child_set_hash_many, parent_hash
from repro.errors import ParameterError
from repro.hashing import Checksum, SeededHasher, fingerprint64, mix64
from repro.hashing.checksum import _BATCH_CUTOFF
from repro.protocols.parties.setrecon import set_verification_hash

SEED = 2018
WIDE = [1 << 64, (1 << 200) + 7]
CHILDREN = [[1, 2, 3], [], [4], list(range(10, 60)), []]


def reference_fold(checksum, values):
    """XOR of per-key checksums, one ``of_key`` call each."""
    combined = 0
    for value in values:
        combined ^= checksum.of_key(value)
    return combined


@pytest.fixture(params=["as-installed", "always-scalar", "always-batched"])
def route(request, monkeypatch):
    """Run a test on the routes the sizes pick, with the size cutoff out of
    reach, and with every input, the empty one too, past the cutoff."""
    if request.param == "always-scalar":
        monkeypatch.setattr(checksum_module, "_BATCH_CUTOFF", 1 << 62)
    elif request.param == "always-batched":
        monkeypatch.setattr(checksum_module, "_BATCH_CUTOFF", -1)
    return request.param


class TestPinnedValues:
    """Literal values: both routes must produce these bytes."""

    def test_of_set(self, route):
        assert Checksum(SEED, 64).of_set(range(1, 101)) == 0xB25B8823F8C5F63E
        assert Checksum(SEED, 64).of_set([3, 1, 2]) == 0xCF7973E2EDBF9739
        assert Checksum(SEED, 32).of_set(range(1, 101)) == 0xF8C5F63E
        assert Checksum(SEED, 64).of_set(WIDE + [5]) == 0x9D0D3014FE0B5AC3

    def test_callers_of_the_fold(self, route):
        assert SeededHasher(SEED, 64).hash_iterable(range(1, 101)) == 0xB25B8823F8C5F63E
        assert set_verification_hash(SEED, range(1, 101)) == 0xF48D4B353CECC528

    def test_child_and_parent_hashes(self, route):
        assert child_set_hash_many(CHILDREN, SEED, 48) == [
            0xBDC4894FE26A,
            0x0,
            0x1939BE6F705F,
            0x630733B99529,
            0x0,
        ]
        assert parent_hash(CHILDREN, SEED) == 0x5D8D230E26F2157E


class TestRoutesAgree:
    @pytest.mark.parametrize("bits", [16, 48, 64, 96])
    @pytest.mark.parametrize(
        "size", [0, 1, _BATCH_CUTOFF - 1, _BATCH_CUTOFF, _BATCH_CUTOFF + 1, 500]
    )
    def test_of_set_matches_per_key_reference(self, route, bits, size):
        checksum = Checksum(SEED, bits)
        values = [mix64(index) >> 8 for index in range(size)]
        assert checksum.of_set(values) == reference_fold(checksum, values)
        assert checksum.of_set(iter(values)) == checksum.of_set(values[::-1])

    def test_wide_keys_fold_through_fingerprint64(self, route):
        checksum = Checksum(SEED, 64)
        values = list(range(100)) + WIDE
        assert checksum.of_set(values) == reference_fold(checksum, values)
        assert checksum.of_set(WIDE) == checksum.of_set(map(fingerprint64, WIDE))

    def test_of_sets_matches_of_set_per_child(self, route):
        checksum = Checksum(SEED, 64)
        sets = [
            [],
            [],
            list(range(40)),
            [],
            [7],
            set(range(1000, 1100)),
            frozenset(),
            (5, 6),
            [],
        ]
        assert checksum.of_sets(sets) == [checksum.of_set(members) for members in sets]
        assert checksum.of_sets([]) == []
        assert checksum.of_sets([[], []]) == [0, 0]
        with_wide = sets + [WIDE]
        assert checksum.of_sets(with_wide) == [
            reference_fold(checksum, members) for members in with_wide
        ]

    def test_empty_set_hashes_to_zero(self, route):
        assert Checksum(SEED, 64).of_set([]) == 0
        assert set_verification_hash(SEED, set()) == 0

    def test_child_hashes_across_the_cutoff(self, route):
        few = [[1, 2], [], [3]]
        many = few + [list(range(100, 100 + 4 * _BATCH_CUTOFF))]
        assert child_set_hash_many(many, SEED, 48)[:3] == child_set_hash_many(few, SEED, 48)
        assert child_set_hash_many(map(iter, few), SEED, 48) == child_set_hash_many(
            [child[::-1] for child in few], SEED, 48
        )


class TestInputHygiene:
    """Both routes refuse what they would otherwise hash differently."""

    @pytest.mark.parametrize("size", [3, 4 * _BATCH_CUTOFF])
    @pytest.mark.parametrize("bad", [-1, 1.0, 2.5, "7", None])
    def test_bad_element_raises_parameter_error(self, route, size, bad):
        values = list(range(size)) + [bad]
        with pytest.raises(ParameterError):
            Checksum(SEED, 64).of_set(values)
        with pytest.raises(ParameterError):
            Checksum(SEED, 64).of_sets([[1], values])
        with pytest.raises(ParameterError):
            set_verification_hash(SEED, values)
        with pytest.raises(ParameterError):
            child_set_hash_many([values], SEED, 48)

    def test_bool_and_int_subclass_elements_are_ints(self, route):
        class Key(int):
            pass

        values = list(range(2, 60))
        expected = Checksum(SEED, 64).of_set(values + [1, 0])
        assert Checksum(SEED, 64).of_set(values + [True, False]) == expected
        assert Checksum(SEED, 64).of_set(values + [Key(1), Key(0)]) == expected

    def test_widths_above_64_bits_are_refused(self):
        with pytest.raises(ParameterError):
            SeededHasher(SEED, 65).hash_iterable([1, 2, 3])
        with pytest.raises(ParameterError):
            child_set_hash_many([[1]], SEED, 65)
        with pytest.raises(ParameterError):
            child_set_hash_many([[1]], SEED, 0)


class TestLinearity:
    """``H(S ^ D) == H(S) ^ H(D)``: what ``SketchStore.apply`` and
    ``StoreView.with_difference`` rely on to keep a running hash in O(d)."""

    @given(
        st.sets(st.integers(min_value=0, max_value=(1 << 70)), max_size=80),
        st.sets(st.integers(min_value=0, max_value=(1 << 70)), max_size=80),
    )
    def test_symmetric_difference_is_xor(self, base, delta):
        for hash_of in (
            Checksum(SEED, 64).of_set,
            Checksum(SEED, 20).of_set,
            lambda elements: set_verification_hash(SEED, elements),
        ):
            assert hash_of(base ^ delta) == hash_of(base) ^ hash_of(delta)

    def test_parent_hash_is_not_linear_in_the_elements(self):
        # Moving an element between children must change the parent hash.
        assert parent_hash([[1, 2], [3]], SEED) != parent_hash([[1], [2, 3]], SEED)


def test_large_sets_take_the_batched_route(monkeypatch):
    def scalar_route_used(*args, **kwargs):
        raise AssertionError("scalar fold on a large narrow-key set")

    monkeypatch.setattr(Checksum, "_fold", scalar_route_used)
    Checksum(SEED, 64).of_set(range(_BATCH_CUTOFF + 1))
    Checksum(SEED, 64).of_sets([range(_BATCH_CUTOFF), [1]])
