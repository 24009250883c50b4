"""Pins: every protocol's charged bits on fixed inputs, through its one spelling.

Each protocol runs through :func:`repro.reconcile` (the naive table protocol
through ``db_parties(protocol="naive")`` and Theorem 3.11 through
:func:`~repro.core.setsofsets.nested.reconcile_multisets_of_multisets`, the
two spellings with no registered name).  The values were recorded from the
implementations that preceded the party sessions, so any change to what a
protocol sends shows up here.
"""

import functools
import zlib

import pytest

import repro
from repro.core.setsofsets import MultisetOfMultisets
from repro.protocols.parties.applications import db_parties
from repro.protocols.session import run_session
from repro.workloads import sets_of_sets_instance

from protocol_fixtures import protocol_instances

#: (success, total_bits, num_rounds, attempts) recorded from the
#: pre-session implementation (commit ea3d034) on the fixed inputs below.
#: The four entries that send an L0 estimator (``unknown_d``,
#: ``naive_unknown``, ``multiround`` and ``multiround_unknown``) were
#: re-recorded once, when its frame became the compact one that sends only
#: levels up to the deepest non-zero counter; rounds and attempts held.
#: Every entry but ``cpi`` and ``multiround_unknown`` was re-recorded once
#: more when the default IBLT cell narrowed to a 4-bit wrapped count and a
#: 16-bit checksum; successes, rounds and attempts held.  The entries that
#: run the cascade (``cascading``, ``cascading_unknown``, the two graph
#: schemes, ``forest``, ``db`` and ``multisets_of_multisets``) were
#: re-recorded once more when its plan began taking its cheapest
#: truncation; successes, rounds and attempts held.
PINNED = {
    "known_d": (True, 1366, 1, 1),
    "unknown_d": (True, 2840, 2, 1),
    "cpi": (True, 142, 1, 1),
    "naive": (True, 2804, 1, 1),
    "naive_unknown": (True, 8093, 2, 1),
    "iblt_of_iblts": (True, 34496, 1, 1),
    "iblt_of_iblts_unknown": (True, 7792, 1, 1),
    "cascading": (True, 4448, 1, 1),
    "cascading_unknown": (True, 1708, 1, 1),
    "multiround": (True, 8070, 3, 1),
    "multiround_unknown": (True, 11318, 4, 1),
    # The composite reconcilers, recorded from their monolithic function
    # bodies (commit 450668c, the last one that had them) on the
    # ``protocol_fixtures`` instances with seed 99.
    "degree_order": (True, 1432, 1, 1),
    "degree_neighborhood": (True, 126416, 1, 1),
    "forest": (True, 15744, 1, 1),
    "db": (True, 848, 1, 1),
    "db_naive": (True, 848, 1, 1),
    "documents": (True, 24338112, 1, 1),
    "multisets_of_multisets": (True, 1048, 1, 1),
}

#: ``details`` of the composite runs above, recorded at the same commit
#: (``bob_canonical_labeling`` as the CRC-32 of its sorted items).  The two
#: graph entries' ``signature_bits`` and ``edge_bits`` were re-recorded with
#: the totals above, when IBLT cells narrowed, and ``signature_bits`` and
#: the cascade entries' ``num_levels`` once more with the cascade plan.
PINNED_DETAILS = {
    "degree_order": {
        "bob_canonical_labeling": 1486071807,
        "num_top": 32, "signature_bits": 896, "edge_bits": 536,
    },
    "degree_neighborhood": {
        "bob_canonical_labeling": 3175327270,
        "max_degree": 52, "edge_bits": 496,
        "signature_bits": 125920,
    },
    "forest": {"max_depth": 6, "change_bound": 78, "failure": None},
    "db": {
        "num_levels": 0, "used_t_star": True, "recovered_children": 3,
        "differing_bob_children": 3, "failure": None,
    },
    "db_naive": {"differing_children_found": 6, "failure": None},
    "documents": {"differing_children_found": 5, "failure": None},
    "multisets_of_multisets": {
        "num_levels": 0, "used_t_star": True, "recovered_children": 4,
        "differing_bob_children": 4, "failure": None,
    },
}


def _sets_instance():
    return sets_of_sets_instance(20, 12, 256, 6, 31, max_children_touched=3)


@functools.lru_cache(maxsize=1)
def _fixture_results():
    a = set(range(60))
    b = set(range(8, 68))
    inst = _sets_instance()

    def flat(protocol, bound):
        return repro.reconcile(
            a, b, protocol=protocol, difference_bound=bound, universe_size=128, seed=41
        )

    def nested(protocol, bound, **options):
        return repro.reconcile(
            inst.alice, inst.bob, protocol=protocol, difference_bound=bound,
            universe_size=256, seed=31, **options,
        )

    h = inst.max_child_size
    return {
        "known_d": flat("ibf", 20),
        "unknown_d": flat("ibf", None),
        "cpi": flat("cpi", 16),
        "naive": nested("naive", inst.differing_children, max_child_size=h),
        "naive_unknown": nested("naive", None, max_child_size=h),
        "iblt_of_iblts": nested("iblt_of_iblts", inst.planted_difference),
        "iblt_of_iblts_unknown": nested("iblt_of_iblts", None),
        "cascading": nested("cascading", inst.planted_difference, max_child_size=h),
        "cascading_unknown": nested("cascading", None, max_child_size=h),
        "multiround": nested("multiround", inst.planted_difference, max_child_size=h),
        "multiround_unknown": nested("multiround", None, max_child_size=h),
        **_composite_results(),
    }


def _composite_results():
    instances = protocol_instances()
    results = {
        name: repro.reconcile(alice, bob, protocol=name, seed=99, **kwargs)
        for name, (alice, bob, kwargs) in instances.items()
        if name in PINNED_DETAILS
    }
    # ``protocol="naive"`` under a table is a party-builder choice, not a
    # registered name.
    table_alice, table_bob, table_kwargs = instances["db"]
    results["db_naive"] = run_session(
        *db_parties(
            table_alice, table_bob, table_kwargs["difference_bound"], 99, protocol="naive"
        )
    )
    # Theorem 3.11 is a building block of ``forest``, not a registered name.
    results["multisets_of_multisets"] = repro.reconcile_multisets_of_multisets(
        MultisetOfMultisets([[1, 1, 2], [3, 4], [3, 4], [9], [10, 11, 11]]),
        MultisetOfMultisets([[1, 2], [3], [3, 4], [8]]),
        6, 16, 4,
    )
    return results


def _pinnable(details):
    labeling = details.get("bob_canonical_labeling")
    if labeling is None:
        return details
    crc = zlib.crc32(repr(sorted(labeling.items())).encode())
    return {**details, "bob_canonical_labeling": crc}


def test_results_match_pinned_fixtures():
    results = _fixture_results()
    assert set(results) == set(PINNED)
    for name, result in results.items():
        observed = (
            result.success, result.total_bits, result.num_rounds, result.attempts
        )
        assert observed == PINNED[name], name


@pytest.mark.parametrize("name", sorted(PINNED_DETAILS))
def test_composite_details_match_pins(name):
    assert _pinnable(_fixture_results()[name].details) == PINNED_DETAILS[name]


def test_recovered_objects_are_correct():
    results = _fixture_results()
    inst = _sets_instance()
    assert results["known_d"].recovered == set(range(60))
    assert results["cpi"].recovered == set(range(60))
    for name in ("naive", "iblt_of_iblts", "cascading", "multiround"):
        assert results[name].recovered == inst.alice, name
    table_alice = protocol_instances()["db"][0]
    assert results["db"].recovered == results["db_naive"].recovered == table_alice
