"""The protocol registry and the uniform :func:`reconcile` entry point.

Every protocol in the library registers a :class:`Protocol` descriptor in
one ``name -> class`` dict, carrying metadata -- input kind, round count,
known/unknown-``d`` support, paper reference -- and a ``build`` hook that
turns ``(alice, bob, options)`` into the two party generators.
``repro.reconcile(alice, bob, protocol="multiround", ...)`` resolves a name,
builds the parties, and runs them over a transport: by default the
in-process :class:`~repro.protocols.transports.SerializingTransport`, whose
receiver decodes the same bytes a socket would deliver.
"""

from __future__ import annotations

from typing import Any

from repro.comm import ReconciliationResult, Transcript
from repro.errors import ParameterError
from repro.protocols.options import ReconcileOptions
from repro.protocols.party import PartyPair
from repro.protocols.session import run_session
from repro.protocols.transports import Transport

class Protocol:
    """Base class for protocol descriptors.

    Class attributes are the registry metadata; :meth:`build` constructs the
    two party generators for one execution.  Descriptors are stateless --
    everything execution-specific lives in the options object and the party
    closures.
    """

    #: Registry key (e.g. ``"multiround"``).
    name: str = ""
    #: What ``alice`` and ``bob`` are: ``"set"``, ``"set_of_sets"``,
    #: ``"graph"``, ``"forest"``, ``"table"``, ``"documents"`` or ``"kv"``.
    input_kind: str = ""
    #: Rounds of the known-``d`` variant.
    rounds_known: int = 1
    #: Rounds of the unknown-``d`` variant (``None`` when unsupported; the
    #: string ``"log d"`` marks the repeated-doubling variants).
    rounds_unknown: Any = None
    #: Whether ``difference_bound=None`` selects an unknown-``d`` variant.
    supports_unknown_d: bool = False
    #: One-line description for the generated protocol table.
    summary: str = ""
    #: Paper reference (theorem / corollary numbers).
    reference: str = ""

    @classmethod
    def build(cls, alice: Any, bob: Any, options: ReconcileOptions) -> PartyPair:
        """Return ``(alice_party, bob_party)`` generators for one execution."""
        raise NotImplementedError

    @classmethod
    def rounds_label(cls) -> str:
        """Human-readable round count for the docs table."""
        if not cls.supports_unknown_d:
            return str(cls.rounds_known)
        return f"{cls.rounds_known} / {cls.rounds_unknown} (unknown d)"


_protocols: dict[str, type[Protocol]] = {}


def register_protocol(cls: type[Protocol]) -> type[Protocol]:
    """Register a protocol descriptor under ``cls.name`` (decorator-friendly).

    An empty name or one already registered raises
    :class:`~repro.errors.ParameterError`.
    """
    if not cls.name or cls.name in _protocols:
        raise ParameterError(f"invalid or duplicate protocol name {cls.name!r}")
    _protocols[cls.name] = cls
    return cls


def names() -> list[str]:
    """Sorted names of every registered protocol."""
    return sorted(_protocols)


def get(name: str) -> type[Protocol]:
    """Look up a protocol descriptor by name (unknown names raise)."""
    try:
        return _protocols[name]
    except KeyError:
        raise ParameterError(
            f"unknown protocol {name!r}; registered: {names()}"
        ) from None


def specs() -> list[type[Protocol]]:
    """Every registered descriptor, sorted by name."""
    return [get(name) for name in names()]


def registry_table_markdown() -> str:
    """The protocol table for README / docs, generated from the registry."""
    header = (
        "| protocol | input | rounds | unknown d | reference | summary |\n"
        "|---|---|---|---|---|---|\n"
    )
    rows = []
    for spec in specs():
        rows.append(
            f"| `{spec.name}` | {spec.input_kind} | {spec.rounds_label()} | "
            f"{'yes' if spec.supports_unknown_d else 'no'} | {spec.reference} | "
            f"{spec.summary} |"
        )
    return header + "\n".join(rows) + "\n"


def reconcile(
    alice: Any,
    bob: Any,
    *,
    protocol: str,
    options: ReconcileOptions | None = None,
    transport: Transport | None = None,
    transcript: Transcript | None = None,
    **overrides: Any,
) -> ReconciliationResult:
    """Run any registered protocol between ``alice`` and ``bob``.

    Parameters
    ----------
    alice, bob:
        The two parties' data; the required type depends on the protocol's
        ``input_kind`` (see :func:`specs` or docs/protocols.md).
    protocol:
        A registered protocol name (see :func:`names`).
    options:
        A :class:`~repro.protocols.options.ReconcileOptions`; keyword
        ``overrides`` are applied on top (so ``reconcile(a, b,
        protocol="ibf", seed=7, universe_size=100, difference_bound=4)``
        works without building an options object first).
    transport:
        A :class:`~repro.protocols.transports.Transport`; ``None`` uses a
        fresh :class:`~repro.protocols.transports.SerializingTransport`.
    transcript:
        Optional existing transcript to append to.
    """
    spec = get(protocol)
    merged = (options if options is not None else ReconcileOptions()).merged(
        **overrides
    )
    alice_party, bob_party = spec.build(alice, bob, merged)
    return run_session(alice_party, bob_party, transport=transport, transcript=transcript)


# ---------------------------------------------------------------------------
# Descriptors for every protocol in the library
# ---------------------------------------------------------------------------


def _derived_max_child_size(alice: Any, bob: Any, options: ReconcileOptions) -> int:
    if options.max_child_size is not None:
        return options.max_child_size
    return max(1, alice.max_child_size, bob.max_child_size)


def _sets_of_sets_options(options: ReconcileOptions) -> dict[str, Any]:
    """The ``SetsOfSetsContext`` fields every set-of-sets protocol takes from ``options``."""
    return dict(differing_children_bound=options.differing_children_bound)


def _sets_of_sets_context(
    alice: Any, bob: Any, options: ReconcileOptions, **extra: Any
) -> Any:
    from repro.protocols.parties.setsofsets import context_for

    options.require("universe_size")
    return context_for(
        alice,
        bob,
        options.universe_size,
        options.seed,
        **_sets_of_sets_options(options),
        **extra,
    )


@register_protocol
class IBFProtocol(Protocol):
    name = "ibf"
    input_kind = "set"
    rounds_known = 1
    rounds_unknown = 2
    supports_unknown_d = True
    summary = "IBLT set reconciliation; estimator sizes the table when d is unknown"
    reference = "Cor 2.2 / Cor 3.2"

    @classmethod
    def build(cls, alice: Any, bob: Any, options: ReconcileOptions) -> PartyPair:
        from repro.protocols.parties.setrecon import SetReconContext, ibf_parties

        options.require("universe_size")
        ctx = SetReconContext(options.universe_size, options.seed)
        return ibf_parties(alice, bob, options.difference_bound, ctx)


@register_protocol
class KVSyncProtocol(Protocol):
    name = "kv"
    input_kind = "kv"
    rounds_known = 4
    rounds_unknown = 6
    supports_unknown_d = True
    summary = (
        "replicated-KV gossip: summary check, fingerprint set reconciliation "
        "(a fold ladder, +2 rounds per growth), value fetch"
    )
    reference = "Cor 2.2 / Cor 3.2 application"

    @classmethod
    def build(cls, alice: Any, bob: Any, options: ReconcileOptions) -> PartyPair:
        from repro.cluster.parties import kv_context, kv_parties

        ctx = kv_context(options)
        return kv_parties(alice, bob, options.difference_bound, ctx)


@register_protocol
class CPIProtocol(Protocol):
    name = "cpi"
    input_kind = "set"
    rounds_known = 1
    summary = "characteristic-polynomial reconciliation; certain whenever d holds"
    reference = "Thm 2.3"

    @classmethod
    def build(cls, alice: Any, bob: Any, options: ReconcileOptions) -> PartyPair:
        from repro.protocols.parties.setrecon import cpi_parties

        options.require("universe_size", "difference_bound")
        return cpi_parties(
            alice,
            bob,
            options.difference_bound,
            options.universe_size,
            options.seed,
        )


@register_protocol
class NaiveProtocol(Protocol):
    name = "naive"
    input_kind = "set_of_sets"
    rounds_known = 1
    rounds_unknown = 2
    supports_unknown_d = True
    summary = "whole child sets as single items of a huge universe"
    reference = "Thm 3.3 / Thm 3.4"

    @classmethod
    def build(cls, alice: Any, bob: Any, options: ReconcileOptions) -> PartyPair:
        from repro.protocols.parties.setsofsets import naive_parties

        ctx = _sets_of_sets_context(
            alice, bob, options,
            max_child_size=_derived_max_child_size(alice, bob, options),
        )
        return naive_parties(alice, bob, options.difference_bound, ctx)


@register_protocol
class IBLTOfIBLTsProtocol(Protocol):
    name = "iblt_of_iblts"
    input_kind = "set_of_sets"
    rounds_known = 1
    rounds_unknown = "2 log d"
    supports_unknown_d = True
    summary = "child IBLTs as parent-IBLT keys; repeated doubling when d is unknown"
    reference = "Thm 3.5 / Cor 3.6"

    @classmethod
    def build(cls, alice: Any, bob: Any, options: ReconcileOptions) -> PartyPair:
        from repro.protocols.parties.setsofsets import iblt_of_iblts_parties

        ctx = _sets_of_sets_context(
            alice, bob, options,
            max_child_size=_derived_max_child_size(alice, bob, options),
        )
        return iblt_of_iblts_parties(alice, bob, options.difference_bound, ctx)


@register_protocol
class CascadingProtocol(Protocol):
    name = "cascading"
    input_kind = "set_of_sets"
    rounds_known = 1
    rounds_unknown = "2 log d"
    supports_unknown_d = True
    summary = (
        "level cascade: cheap levels recover small-difference children first; "
        "T* is a fold ladder (+2 rounds per growth)"
    )
    reference = "Thm 3.7 / Cor 3.8"

    @classmethod
    def build(cls, alice: Any, bob: Any, options: ReconcileOptions) -> PartyPair:
        from repro.protocols.parties.setsofsets import cascading_parties

        ctx = _sets_of_sets_context(
            alice, bob, options,
            max_child_size=_derived_max_child_size(alice, bob, options),
        )
        return cascading_parties(alice, bob, options.difference_bound, ctx)


@register_protocol
class MultiroundProtocol(Protocol):
    name = "multiround"
    input_kind = "set_of_sets"
    rounds_known = 3
    rounds_unknown = 4
    supports_unknown_d = True
    summary = "estimate per-child differences, then size IBLT or CPI payloads exactly"
    reference = "Thm 3.9 / Thm 3.10"

    @classmethod
    def build(cls, alice: Any, bob: Any, options: ReconcileOptions) -> PartyPair:
        from repro.protocols.parties.setsofsets import multiround_parties

        ctx = _sets_of_sets_context(
            alice, bob, options,
            max_child_size=_derived_max_child_size(alice, bob, options),
        )
        bound = options.difference_bound
        return multiround_parties(
            alice, bob, max(1, bound) if bound is not None else None, ctx
        )


@register_protocol
class DegreeOrderProtocol(Protocol):
    name = "degree_order"
    input_kind = "graph"
    rounds_known = 1
    summary = "degree-rank signatures align labelings, then edge reconciliation"
    reference = "Thm 5.2"

    @classmethod
    def build(cls, alice: Any, bob: Any, options: ReconcileOptions) -> PartyPair:
        from repro.protocols.parties.graphs import degree_order_parties

        options.require("difference_bound", "num_top")
        return degree_order_parties(
            alice, bob, options.difference_bound, options.num_top, options.seed
        )


@register_protocol
class DegreeNeighborhoodProtocol(Protocol):
    name = "degree_neighborhood"
    input_kind = "graph"
    rounds_known = 1
    summary = "neighbor-degree multiset signatures for sparser graphs"
    reference = "Thm 5.6"

    @classmethod
    def build(cls, alice: Any, bob: Any, options: ReconcileOptions) -> PartyPair:
        from repro.protocols.parties.graphs import degree_neighborhood_parties

        options.require("difference_bound", "max_degree")
        return degree_neighborhood_parties(
            alice, bob, options.difference_bound, options.max_degree, options.seed
        )


@register_protocol
class ForestProtocol(Protocol):
    name = "forest"
    input_kind = "forest"
    rounds_known = 1
    summary = (
        "AHU signatures as multisets-of-multisets over the cascading protocol "
        "(+2 rounds per T* growth)"
    )
    reference = "Thm 6.1"

    @classmethod
    def build(cls, alice: Any, bob: Any, options: ReconcileOptions) -> PartyPair:
        from repro.protocols.parties.graphs import forest_parties

        options.require("difference_bound")
        return forest_parties(
            alice, bob, options.difference_bound, options.max_depth, options.seed
        )


@register_protocol
class LabeledGraphProtocol(Protocol):
    name = "labeled"
    input_kind = "graph"
    rounds_known = 1
    rounds_unknown = 2
    supports_unknown_d = True
    summary = "shared-labeling graphs reduce to labeled-edge set reconciliation"
    reference = "Section 4"

    @classmethod
    def build(cls, alice: Any, bob: Any, options: ReconcileOptions) -> PartyPair:
        from repro.protocols.parties.graphs import labeled_parties

        return labeled_parties(alice, bob, options.difference_bound, options.seed)


@register_protocol
class ExhaustiveProtocol(Protocol):
    name = "exhaustive"
    input_kind = "graph"
    rounds_known = 1
    summary = "O(d log n)-bit canonical-form fingerprint; brute-force decode"
    reference = "Thm 4.3"

    @classmethod
    def build(cls, alice: Any, bob: Any, options: ReconcileOptions) -> PartyPair:
        from repro.protocols.parties.graphs import exhaustive_parties

        options.require("difference_bound")
        return exhaustive_parties(
            alice, bob, options.difference_bound, options.seed
        )


@register_protocol
class DatabaseProtocol(Protocol):
    name = "db"
    input_kind = "table"
    rounds_known = 1
    summary = "binary relational tables as sets of row-sets (cascading, +2 rounds per T* growth)"
    reference = "Section 1.1 application"

    @classmethod
    def build(cls, alice: Any, bob: Any, options: ReconcileOptions) -> PartyPair:
        from repro.protocols.parties.applications import db_parties

        options.require("difference_bound")
        return db_parties(
            alice,
            bob,
            options.difference_bound,
            options.seed,
            **_sets_of_sets_options(options),
        )


@register_protocol
class DocumentsProtocol(Protocol):
    name = "documents"
    input_kind = "documents"
    rounds_known = 1
    summary = "shingle-signature sets per document (IBLT-of-IBLTs)"
    reference = "Thm 3.5 application"

    @classmethod
    def build(cls, alice: Any, bob: Any, options: ReconcileOptions) -> PartyPair:
        from repro.protocols.parties.applications import documents_parties

        options.require("difference_bound")
        return documents_parties(
            alice,
            bob,
            options.difference_bound,
            options.seed,
            **_sets_of_sets_options(options),
        )
