"""Registry behavior: names, metadata, the uniform entry point, docs sync."""

from pathlib import Path

import pytest

import repro
from repro.documents import DocumentCollection
from repro.errors import ParameterError
from repro.iblt import IBLT
from repro.protocols import ReconcileOptions
from repro.protocols.registry import (
    Protocol,
    get,
    names,
    register_protocol,
    registry_table_markdown,
    specs,
)
from repro.workloads import edited_corpus_pair

from protocol_fixtures import protocol_instances

EXPECTED_PROTOCOLS = {
    "ibf",
    "cpi",
    "naive",
    "iblt_of_iblts",
    "cascading",
    "multiround",
    "degree_order",
    "degree_neighborhood",
    "forest",
    "labeled",
    "exhaustive",
    "db",
    "documents",
    "kv",
}


class TestRegistry:
    def test_names_lists_every_protocol(self):
        assert set(names()) == EXPECTED_PROTOCOLS
        assert names() == sorted(names())

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(ParameterError, match="registered"):
            get("bogus")

    def test_metadata_present(self):
        for spec in specs():
            assert spec.name and spec.input_kind and spec.summary and spec.reference
            assert spec.rounds_known >= 1
            if spec.supports_unknown_d:
                assert spec.rounds_unknown is not None
            assert spec.rounds_label()

    @pytest.mark.parametrize("name", ["", "ibf"], ids=["empty", "duplicate"])
    def test_register_refuses_an_empty_or_duplicate_name(self, name):
        descriptor = type("Impostor", (Protocol,), {"name": name})
        with pytest.raises(ParameterError, match="protocol name"):
            register_protocol(descriptor)
        assert names() == sorted(EXPECTED_PROTOCOLS)
        assert name == "" or get(name) is not descriptor

    def test_input_kinds(self):
        kinds = {spec.name: spec.input_kind for spec in specs()}
        assert kinds["ibf"] == kinds["cpi"] == "set"
        assert kinds["multiround"] == "set_of_sets"
        assert kinds["degree_order"] == "graph"
        assert kinds["forest"] == "forest"
        assert kinds["db"] == "table"
        assert kinds["documents"] == "documents"
        assert kinds["kv"] == "kv"


class TestReconcileEntryPoint:
    def test_every_protocol_runs(self):
        for protocol, (alice, bob, kwargs) in protocol_instances().items():
            result = repro.reconcile(
                alice, bob, protocol=protocol, seed=99, **kwargs
            )
            assert result.success, (protocol, result.details)
            assert result.total_bits > 0

    @pytest.mark.parametrize(
        "protocol", ["cascading", "naive", "iblt_of_iblts", "degree_order", "forest"]
    )
    def test_numpy_sessions_build_every_table_on_numpy(self, protocol, monkeypatch):
        built = []
        build = IBLT.__init__

        def spying(table, params, backend=None):
            build(table, params, backend)
            built.append((params.key_bits, table.backend))

        monkeypatch.setattr(IBLT, "__init__", spying)
        alice, bob, kwargs = protocol_instances()[protocol]
        result = repro.reconcile(
            alice, bob, protocol=protocol, seed=99, backend="numpy", **kwargs
        )
        assert result.success, (protocol, result.details)
        assert built
        assert [(bits, "numpy") for bits, _ in built] == built

    def test_options_object_and_overrides_compose(self):
        alice, bob, kwargs = protocol_instances()["ibf"]
        options = ReconcileOptions(seed=99, universe_size=kwargs["universe_size"])
        result = repro.reconcile(
            alice, bob, protocol="ibf",
            options=options, difference_bound=kwargs["difference_bound"],
        )
        assert result.success

    def test_unknown_option_rejected(self):
        alice, bob, kwargs = protocol_instances()["ibf"]
        with pytest.raises(ParameterError, match="unknown reconcile option"):
            repro.reconcile(alice, bob, protocol="ibf", bogus_option=1, **kwargs)

    def test_missing_required_option_rejected(self):
        with pytest.raises(ParameterError, match="universe_size"):
            repro.reconcile({1}, {2}, protocol="ibf", difference_bound=1)
        with pytest.raises(ParameterError, match="difference_bound"):
            repro.reconcile({1}, {2}, protocol="cpi", universe_size=8)

    @pytest.mark.parametrize("protocol", sorted(protocol_instances()))
    def test_negative_bound_refused_by_every_protocol(self, protocol):
        alice, bob, kwargs = protocol_instances()[protocol]
        kwargs = {**kwargs, "difference_bound": -1}
        with pytest.raises(ParameterError, match="difference_bound"):
            repro.reconcile(alice, bob, protocol=protocol, seed=99, **kwargs)

    @pytest.mark.parametrize("protocol", sorted(protocol_instances()))
    def test_unknown_tier_name_refused_by_every_protocol(self, protocol):
        # Checked once, in ReconcileOptions: a protocol that never reads
        # the name refuses it as well.
        alice, bob, kwargs = protocol_instances()[protocol]
        for keyword, error in (("backend", "cell backend"), ("field_kernel", "field kernel")):
            with pytest.raises(ParameterError, match=f"unknown {error} 'gpu'"):
                repro.reconcile(
                    alice, bob, protocol=protocol, seed=99, **{**kwargs, keyword: "gpu"}
                )

    def test_tier_names_checked_by_options_and_merge(self):
        for name in (None, "auto", "numpy"):
            assert ReconcileOptions(field_kernel=name).field_kernel == name
            assert ReconcileOptions(backend=name).backend == name
        with pytest.raises(ParameterError, match="unknown cell backend 'python'"):
            ReconcileOptions(backend="python")
        with pytest.raises(ParameterError, match="unknown field kernel 'python'"):
            ReconcileOptions(field_kernel="python")
        with pytest.raises(ParameterError, match="unknown field kernel 3"):
            ReconcileOptions().merged(field_kernel=3)

    def test_negative_bound_refused_by_options_and_merge(self):
        with pytest.raises(ParameterError, match="difference_bound"):
            ReconcileOptions(difference_bound=-1)
        with pytest.raises(ParameterError, match="difference_bound"):
            ReconcileOptions().merged(difference_bound=-3)
        assert ReconcileOptions(difference_bound=0).difference_bound == 0

    def test_documents_honours_differing_children_bound(self):
        # The test_integration corpus: the option must reach the parties.
        alice_texts, bob_texts = edited_corpus_pair(20, 40, 2, 2, 1, seed=5)
        alice = DocumentCollection(alice_texts, 3, seed=5, signature_size=16)
        bob = DocumentCollection(bob_texts, 3, seed=5, signature_size=16)
        for bound, bits in ((8, 245_664), (None, 785_984)):
            result = repro.reconcile(
                alice, bob, protocol="documents", seed=6,
                difference_bound=32, differing_children_bound=bound,
            )
            assert result.success
            assert result.recovered == alice.to_sets_of_sets()
            assert result.total_bits == bits

    def test_db_honours_differing_children_bound(self):
        alice, bob, kwargs = protocol_instances()["db"]
        default = repro.reconcile(alice, bob, protocol="db", seed=99, **kwargs)
        bounded = repro.reconcile(
            alice, bob, protocol="db", seed=99, differing_children_bound=3, **kwargs
        )
        assert bounded.success and bounded.recovered == alice
        assert (default.total_bits, bounded.total_bits) == (848, 624)

    def test_documents_decodes_a_new_child_against_an_unchanged_one(self):
        # Alice holds a near-duplicate of a document both sides share, so the
        # only child it decodes against is one of Bob's *unchanged* children:
        # bob has no differing child, and the fallback to all of his finds it.
        shared, _ = edited_corpus_pair(6, 30, 0, 0, 0, seed=3)
        words = shared[0].split()
        words[5] = "zebra"
        alice = DocumentCollection([*shared, " ".join(words)], 3, seed=3)
        bob = DocumentCollection(shared, 3, seed=3)
        outcome = repro.reconcile(
            alice, bob, protocol="documents", seed=1, difference_bound=16
        )
        assert outcome.success
        assert outcome.recovered == alice.to_sets_of_sets()
        assert outcome.details["differing_children_found"] == 1


class TestDocsSync:
    def test_table_mentions_every_protocol(self):
        table = registry_table_markdown()
        for name in names():
            assert f"`{name}`" in table

    def test_readme_table_in_sync(self):
        readme = Path(__file__).resolve().parents[2] / "README.md"
        content = readme.read_text()
        for line in registry_table_markdown().strip().splitlines():
            assert line in content, f"README protocol table out of date: {line!r}"
