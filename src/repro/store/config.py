"""The protocol configuration a stored sketch is keyed on.

A live sketch is only reusable by a session that would have built the exact
same sketch from scratch: same universe (key width) and same seed (bucket
and checksum hash functions).  Those fields -- the subset of
:class:`~repro.protocols.options.ReconcileOptions` the ``ibf`` builder
reads -- make up :class:`SketchConfig`; its :attr:`~SketchConfig.fingerprint`
is the cache key, and a persisted sketch whose recorded parameters no longer
match the parameters recomputed from its recorded config is discarded as an
invalidation (the library's sizing rules or hash derivations changed
underneath it, or it was built with another hash count than
:data:`~repro.iblt.sizing.NUM_HASHES`).

The tier names are deliberately absent.  Every ``backend`` name serves the
one cell store, so every spelling shares one family; and GF(p) arithmetic
never touches an IBLT or estimator sketch, so a field kernel cannot
invalidate one.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any

from repro.core.setrecon.difference import max_element_bits
from repro.iblt import IBLTParameters
from repro.iblt.backends import check_backend
from repro.iblt.sizing import NUM_HASHES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.options import ReconcileOptions
    from repro.protocols.parties.setrecon import SetReconContext


@dataclass(frozen=True)
class SketchConfig:
    """The (hashable, persistable) identity of one sketch family.

    Mirrors exactly what :class:`~repro.protocols.registry.IBFProtocol`
    feeds into :class:`~repro.protocols.parties.setrecon.SetReconContext`.
    """

    universe_size: int
    seed: int = 0
    #: Checked (:func:`~repro.iblt.backends.check_backend`), then dropped:
    #: every accepted name is the one cell store.
    backend: InitVar[str | None] = None

    def __post_init__(self, backend: str | None) -> None:
        check_backend(backend)

    @classmethod
    def from_options(cls, options: "ReconcileOptions") -> "SketchConfig":
        return cls(options.universe_size, options.seed)

    def context(self) -> "SetReconContext":
        """The shared protocol context a session with this config derives."""
        return _context(self)

    @property
    def fingerprint(self) -> str:
        """The cache key: every field that shapes sketch *contents*."""
        return f"u{self.universe_size}/s{self.seed}/k{NUM_HASHES}"

    # -- derived identities the invalidation rules check against ---------------------

    @property
    def table_seed(self) -> int:
        """Seed every IBLT of this config is built with."""
        from repro.protocols.parties.setrecon import table_seed

        return table_seed(self.seed)

    @property
    def key_bits(self) -> int:
        """Key width every IBLT of this config is built with."""
        return max_element_bits(self.universe_size)

    def expected_params(self, num_cells: int) -> IBLTParameters:
        """The table parameters this config derives for a given cell count."""
        return _expected_params(self, num_cells)

    def admits_params(self, params: IBLTParameters) -> bool:
        """Whether table parameters could have come from this config.

        This is the invalidation rule for persisted (and received) tables:
        a table whose seed, key width, hash count, or cell layout disagrees
        with what the config derives today cannot be combined with this
        config's live sketches.
        """
        return params == self.expected_params(params.num_cells)

    # -- persistence -----------------------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        """The persisted config.  ``num_hashes`` is :data:`NUM_HASHES`, the
        hash count every table of the family has."""
        return {
            "universe_size": self.universe_size,
            "seed": self.seed,
            "num_hashes": NUM_HASHES,
            # Read by nothing; kept only so the snapshot format (pinned byte
            # for byte) keeps its shape.
            "backend": None,
            "safety_factor": 2.0,
        }

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "SketchConfig":
        """Read a persisted config.  Its ``num_hashes`` is not honoured: a
        table built with another hash count fails :meth:`admits_params`.  Its
        ``backend`` is ignored: a family persisted under any name is the one
        family."""
        return cls(int(wire["universe_size"]), int(wire["seed"]))


# Every session asks for these, several times; a config is frozen, so each
# is derived once per process.


@lru_cache(maxsize=64)
def _context(config: SketchConfig) -> "SetReconContext":
    from repro.protocols.parties.setrecon import SetReconContext

    return SetReconContext(config.universe_size, config.seed)


@lru_cache(maxsize=256)
def _expected_params(config: SketchConfig, num_cells: int) -> IBLTParameters:
    return IBLTParameters(num_cells=num_cells, key_bits=config.key_bits, seed=config.table_seed)
