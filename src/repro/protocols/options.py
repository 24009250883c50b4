"""The consolidated options object shared by every protocol entry point.

:class:`ReconcileOptions` is the one keyword set of :func:`repro.reconcile`
(``seed``, the facts about the inputs, ``backend=``, ``field_kernel=``):
one frozen dataclass carries every cross-protocol parameter, and each
protocol documents (in its :class:`~repro.protocols.registry.Protocol`
descriptor) which fields it reads.  Fields irrelevant to a protocol are
simply ignored.  Sizing is not an option: hash counts, hash widths and slack
factors are constants of the module that owns each decision
(:data:`repro.iblt.sizing.NUM_HASHES`,
:data:`repro.protocols.parties.setrecon.SAFETY_FACTOR` and the constants at
the top of :mod:`repro.protocols.parties.setsofsets`).

``difference_bound=None`` selects a protocol's unknown-``d`` variant (the
estimator-based or repeated-doubling flavor); a non-negative integer selects
the known-``d`` variant, and a negative one is refused here, once, for every
protocol.  So are the two tier names: a ``backend`` or ``field_kernel`` that
names no tier raises before any party is built, whatever the protocol reads.
Each tier has one implementation, so an accepted name is dropped here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.errors import ParameterError
from repro.field.kernels import check_field_kernel
from repro.iblt.backends import check_backend


@dataclass(frozen=True)
class ReconcileOptions:
    """Every fact and tier choice a registered protocol can consume.

    Attributes
    ----------
    seed:
        Shared seed (public coins).  Every protocol uses it.
    difference_bound:
        The bound ``d`` on the difference (elements, edges, or flipped bits,
        depending on the protocol's input kind).  ``None`` runs the
        unknown-``d`` variant where the protocol supports one; a negative
        bound raises :class:`ParameterError`.
    universe_size:
        Element universe size ``u`` (set and set-of-sets protocols).
    max_child_size:
        Child-set size bound ``h`` (set-of-sets protocols and those built on
        them).  ``None`` lets protocols derive it from the inputs.
    differing_children_bound:
        Bound ``d_hat`` on differing children (set-of-sets protocols);
        ``None`` uses each protocol's default.
    backend:
        ``None``, ``"auto"`` or ``"numpy"``: all name the one IBLT cell
        store, so no protocol reads it (any other name raises
        :class:`ParameterError`).
    field_kernel:
        ``None``, ``"auto"`` or ``"numpy"``: all name the one GF(p) field
        kernel (:mod:`repro.field.kernels`), so no protocol reads it (any
        other name, ``"python"`` included, raises :class:`ParameterError`).
    num_top:
        Degree-ordering parameter ``h`` (``degree_order``); ``None`` derives
        a default from the vertex count.
    max_degree:
        Signature truncation threshold (``degree_neighborhood``); ``None``
        derives it from the graphs' maximum degree.
    max_depth:
        Depth bound ``sigma`` (``forest``); ``None`` uses the forests' actual
        depths.
    """

    seed: int = 0
    difference_bound: int | None = None
    universe_size: int | None = None
    max_child_size: int | None = None
    differing_children_bound: int | None = None
    backend: str | None = None
    field_kernel: str | None = None
    num_top: int | None = None
    max_degree: int | None = None
    max_depth: int | None = None

    def __post_init__(self) -> None:
        if self.difference_bound is not None and self.difference_bound < 0:
            raise ParameterError(
                f"difference_bound must be None or >= 0 (got {self.difference_bound})"
            )
        check_backend(self.backend)
        check_field_kernel(self.field_kernel)

    def merged(self, **overrides: Any) -> "ReconcileOptions":
        """A copy with ``overrides`` applied (unknown names raise)."""
        known = {f.name for f in dataclasses.fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ParameterError(
                f"unknown reconcile option(s): {sorted(unknown)}; known: {sorted(known)}"
            )
        return dataclasses.replace(self, **overrides)

    def require(self, *names: str) -> None:
        """Raise :class:`ParameterError` unless every named field is set."""
        missing = [name for name in names if getattr(self, name) is None]
        if missing:
            raise ParameterError(
                f"protocol requires option(s) {missing} (got None); "
                "pass them via ReconcileOptions or keyword overrides"
            )
