"""Back-compat: the legacy free functions keep their signatures and results.

The ``reconcile_*`` functions are now thin wrappers over protocol sessions;
these tests pin (a) their exact signatures and (b) their results on fixed
inputs against values recorded from the pre-session implementation, so the
refactor is observationally invisible.
"""

import functools
import inspect
import zlib

import pytest

import repro
from repro.core.setsofsets import MultisetOfMultisets
from repro.graphs import random_graphs
from repro.workloads import sets_of_sets_instance

from protocol_fixtures import protocol_instances

#: ``gnp_random_graph`` samples from NumPy's generator when it is importable
#: and from ``random`` otherwise, so the two graph fixtures (the instances, not
#: the protocols) differ between the CI legs; both were recorded.
_NUMPY_GRAPHS = random_graphs.np is not None

#: (success, total_bits, num_rounds, attempts) recorded from the
#: pre-session implementation (commit ea3d034) on the fixed inputs below.
PINNED = {
    "known_d": (True, 2710, 1, 1),
    "unknown_d": (True, 12002, 2, 1),
    "cpi": (True, 142, 1, 1),
    "naive": (True, 3364, 1, 1),
    "naive_unknown": (True, 17496, 2, 1),
    "iblt_of_iblts": (True, 35392, 1, 1),
    "iblt_of_iblts_unknown": (True, 8128, 1, 1),
    "cascading": (True, 73408, 1, 1),
    "cascading_unknown": (True, 8128, 1, 1),
    "multiround": (True, 9192, 3, 1),
    "multiround_unknown": (True, 19870, 4, 1),
    # The composite reconcilers, recorded from their monolithic function
    # bodies (commit 450668c, the last one that had them) on the
    # ``protocol_fixtures`` instances with seed 99.
    "degree_order": (True, 11112, 1, 1),
    "degree_neighborhood": (True, 2519740 if _NUMPY_GRAPHS else 2519484, 1, 1),
    "forest": (True, 348048, 1, 1),
    "db": (True, 57024, 1, 1),
    "db_naive": (True, 1632, 1, 1),
    "documents": (True, 24358720, 1, 1),
    "multisets_of_multisets": (True, 40276, 1, 1),
}

#: ``details`` of the composite runs above, recorded at the same commit
#: (``bob_canonical_labeling`` as the CRC-32 of its sorted items).
PINNED_DETAILS = {
    "degree_order": {
        "bob_canonical_labeling": 1486071807 if _NUMPY_GRAPHS else 250573192,
        "num_top": 32, "signature_bits": 10240, "edge_bits": 872,
    },
    "degree_neighborhood": {
        "bob_canonical_labeling": 3175327270 if _NUMPY_GRAPHS else 2477635943,
        "max_degree": 52, "edge_bits": 832,
        "signature_bits": 2518908 if _NUMPY_GRAPHS else 2518652,
    },
    "forest": {"max_depth": 6, "change_bound": 78, "failure": None},
    "db": {
        "num_levels": 3, "used_t_star": True, "recovered_children": 3,
        "differing_bob_children": 3, "failure": None,
    },
    "db_naive": {"differing_children_found": 6, "failure": None},
    "documents": {"differing_children_found": 5, "failure": None},
    "multisets_of_multisets": {
        "num_levels": 2, "used_t_star": True, "recovered_children": 4,
        "differing_bob_children": 4, "failure": None,
    },
}

SIGNATURES = {
    repro.reconcile_known_d: (
        "alice", "bob", "difference_bound", "universe_size", "seed",
        "num_hashes", "backend", "transcript",
    ),
    repro.reconcile_unknown_d: (
        "alice", "bob", "universe_size", "seed",
        "estimator_factory", "safety_factor", "num_hashes", "backend",
    ),
    repro.reconcile_cpi: (
        "alice", "bob", "difference_bound", "universe_size", "seed",
        "field_kernel", "transcript",
    ),
    repro.reconcile_naive: (
        "alice", "bob", "differing_children_bound", "universe_size",
        "max_child_size", "seed", "num_hashes", "backend", "transcript",
    ),
    repro.reconcile_naive_unknown: (
        "alice", "bob", "universe_size", "max_child_size", "seed",
        "estimator_factory", "safety_factor", "num_hashes", "backend",
    ),
    repro.reconcile_iblt_of_iblts: (
        "alice", "bob", "difference_bound", "universe_size", "seed",
        "differing_children_bound", "child_hash_bits", "num_hashes",
        "backend", "fallback_to_all_children", "transcript",
    ),
    repro.reconcile_iblt_of_iblts_unknown: (
        "alice", "bob", "universe_size", "seed",
        "initial_bound", "max_bound", "child_hash_bits", "num_hashes", "backend",
    ),
    repro.reconcile_cascading: (
        "alice", "bob", "difference_bound", "universe_size", "max_child_size",
        "seed", "differing_children_bound", "child_hash_bits", "num_hashes",
        "backend", "field_kernel", "level_slack", "transcript",
    ),
    repro.reconcile_cascading_unknown: (
        "alice", "bob", "universe_size", "max_child_size", "seed",
        "initial_bound", "max_bound", "child_hash_bits", "num_hashes",
        "backend", "field_kernel", "level_slack",
    ),
    repro.reconcile_multiround: (
        "alice", "bob", "difference_bound", "universe_size", "max_child_size",
        "seed", "differing_children_bound", "child_hash_bits", "num_hashes",
        "backend", "field_kernel", "estimator_factory", "estimate_safety",
        "transcript",
    ),
    repro.reconcile_multiround_unknown: (
        "alice", "bob", "universe_size", "max_child_size", "seed",
        "child_hash_bits", "num_hashes", "backend", "field_kernel",
        "estimator_factory", "estimate_safety", "hash_estimator_factory",
    ),
    # The composites take no custom-callable hooks (``signature_protocol``,
    # ``signature_bound``, callable ``protocol``, ``**protocol_kwargs``).
    repro.reconcile_degree_order: (
        "alice", "bob", "difference_bound", "num_top", "seed",
    ),
    repro.reconcile_degree_neighborhood: (
        "alice", "bob", "difference_bound", "max_degree", "seed",
    ),
    repro.reconcile_forest: (
        "alice", "bob", "difference_bound", "max_depth", "seed", "signature_bits",
    ),
    repro.reconcile_multisets_of_multisets: (
        "alice", "bob", "difference_bound", "universe_size", "seed",
        "element_multiplicity_bound", "parent_multiplicity_bound", "backend",
    ),
    repro.reconcile_tables: (
        "alice", "bob", "flipped_bits_bound", "seed", "protocol", "backend",
    ),
    repro.reconcile_collections: (
        "alice", "bob", "shingle_difference_bound", "seed",
        "differing_children_bound", "backend",
    ),
}


def test_signatures_unchanged():
    for function, expected in SIGNATURES.items():
        parameters = tuple(inspect.signature(function).parameters)
        assert parameters == expected, function.__qualname__


def _fixture_results():
    a = set(range(60))
    b = set(range(8, 68))
    inst = sets_of_sets_instance(20, 12, 256, 6, 31, max_children_touched=3)
    sos = (inst.alice, inst.bob)
    return {
        "known_d": repro.reconcile_known_d(a, b, 20, 128, 41),
        "unknown_d": repro.reconcile_unknown_d(a, b, 128, 41),
        "cpi": repro.reconcile_cpi(a, b, 16, 128, 41),
        "naive": repro.reconcile_naive(
            *sos, inst.differing_children, 256, inst.max_child_size, 31
        ),
        "naive_unknown": repro.reconcile_naive_unknown(
            *sos, 256, inst.max_child_size, 31
        ),
        "iblt_of_iblts": repro.reconcile_iblt_of_iblts(
            *sos, inst.planted_difference, 256, 31
        ),
        "iblt_of_iblts_unknown": repro.reconcile_iblt_of_iblts_unknown(*sos, 256, 31),
        "cascading": repro.reconcile_cascading(
            *sos, inst.planted_difference, 256, inst.max_child_size, 31
        ),
        "cascading_unknown": repro.reconcile_cascading_unknown(
            *sos, 256, inst.max_child_size, 31
        ),
        "multiround": repro.reconcile_multiround(
            *sos, inst.planted_difference, 256, inst.max_child_size, 31
        ),
        "multiround_unknown": repro.reconcile_multiround_unknown(
            *sos, 256, inst.max_child_size, 31
        ),
        **{name: results[0] for name, results in _composite_results().items()},
    }


@functools.lru_cache(maxsize=1)
def _composite_results():
    """``{pin name: [wrapper result, repro.reconcile result (when registered)]}``."""
    instances = protocol_instances()

    def both(registered, wrapper, *option_names):
        alice, bob, kwargs = instances[registered]
        # An option the fixture leaves unset (forest's max_depth) is None.
        arguments = [kwargs.get(name) for name in option_names]
        return [
            wrapper(alice, bob, *arguments, 99),
            repro.reconcile(alice, bob, protocol=registered, seed=99, **kwargs),
        ]

    nested_alice = MultisetOfMultisets([[1, 1, 2], [3, 4], [3, 4], [9], [10, 11, 11]])
    nested_bob = MultisetOfMultisets([[1, 2], [3], [3, 4], [8]])
    table_alice, table_bob, table_kwargs = instances["db"]
    return {
        "degree_order": both(
            "degree_order", repro.reconcile_degree_order, "difference_bound", "num_top"
        ),
        "degree_neighborhood": both(
            "degree_neighborhood", repro.reconcile_degree_neighborhood,
            "difference_bound", "max_degree",
        ),
        "forest": both(
            "forest", repro.reconcile_forest, "difference_bound", "max_depth"
        ),
        "db": both("db", repro.reconcile_tables, "difference_bound"),
        # ``protocol="naive"`` is a wrapper-only choice; nothing registered runs it.
        "db_naive": [
            repro.reconcile_tables(
                table_alice, table_bob, table_kwargs["difference_bound"], 99,
                protocol="naive",
            )
        ],
        "documents": both(
            "documents", repro.reconcile_collections, "difference_bound"
        ),
        # Theorem 3.11 is a building block of ``forest``, not a registered name.
        "multisets_of_multisets": [
            repro.reconcile_multisets_of_multisets(nested_alice, nested_bob, 6, 16, 4)
        ],
    }


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
def test_composite_matches_pins_through_both_entry_points(name):
    results = _composite_results()[name]
    for result in results:
        observed = (
            result.success, result.total_bits, result.num_rounds, result.attempts
        )
        assert observed == PINNED[name]
        assert _pinnable(result.details) == PINNED_DETAILS[name]
        assert result.recovered == results[0].recovered
        assert result.transcript.bits_by_label() == (
            results[0].transcript.bits_by_label()
        )


def test_recovered_objects_are_correct():
    results = _fixture_results()
    a = set(range(60))
    inst = sets_of_sets_instance(20, 12, 256, 6, 31, max_children_touched=3)
    assert results["known_d"].recovered == a
    assert results["cpi"].recovered == a
    for name in ("naive", "iblt_of_iblts", "cascading", "multiround"):
        assert results[name].recovered == inst.alice, name
