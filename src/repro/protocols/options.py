"""The consolidated options object shared by every protocol entry point.

:class:`ReconcileOptions` is the one keyword set of :func:`repro.reconcile`
(``seed``, ``backend=``, ``field_kernel=``, sizing knobs): one frozen
dataclass carries every cross-protocol parameter, and each protocol
documents (in its :class:`~repro.protocols.registry.Protocol` descriptor)
which fields it reads.  Fields irrelevant to a protocol are simply ignored.

``difference_bound=None`` selects a protocol's unknown-``d`` variant (the
estimator-based or repeated-doubling flavor); a non-negative integer selects
the known-``d`` variant, and a negative one is refused here, once, for every
protocol.  So are the two tier names: a ``backend`` or ``field_kernel`` that
names no tier raises before any party is built, whatever the protocol reads.
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
    """Every tunable a registered protocol can consume.

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
        ``None``, ``"auto"`` or ``"numpy"``: the one IBLT cell store (any
        other name raises :class:`ParameterError`).
    field_kernel:
        ``None``, ``"auto"``, ``"numpy"`` or ``"python"``: the GF(p) field
        kernel (:func:`repro.field.kernels.kernel_for`; any other name raises
        :class:`ParameterError`).
    num_hashes:
        Parent-IBLT hash count.
    child_hash_bits:
        Width of per-child identification hashes.
    safety_factor:
        Multiplier applied to the difference estimate of the two-round
        unknown-``d`` protocols (``ibf``, ``naive``, ``labeled``, ``kv``).
        Every unknown-``d`` protocol estimates with the one L0 sketch of
        :mod:`repro.estimator`; its shape is part of the protocol, not an
        option.
    estimate_safety:
        Multiplier applied to the multiround estimates: the differing-children
        estimate of its unknown-``d`` variant and every per-child estimate.
    level_slack:
        Cascading per-level capacity slack.
    initial_bound, max_bound:
        Repeated-doubling schedule (unknown-``d`` IBLT-of-IBLTs/cascading).
    num_top:
        Degree-ordering parameter ``h`` (``degree_order``); ``None`` derives
        a default from the vertex count.
    max_degree:
        Signature truncation threshold (``degree_neighborhood``); ``None``
        derives it from the graphs' maximum degree.
    max_depth:
        Depth bound ``sigma`` (``forest``); ``None`` uses the forests' actual
        depths.
    signature_bits:
        Signature hash width (``forest``).
    fallback_to_all_children:
        IBLT-of-IBLTs relaxed-model fallback (see Theorem 3.5 notes).
    """

    seed: int = 0
    difference_bound: int | None = None
    universe_size: int | None = None
    max_child_size: int | None = None
    differing_children_bound: int | None = None
    backend: str | None = None
    field_kernel: str | None = None
    num_hashes: int = 4
    child_hash_bits: int = 48
    safety_factor: float = 2.0
    estimate_safety: float = 2.0
    level_slack: float = 3.0
    initial_bound: int = 1
    max_bound: int | None = None
    num_top: int | None = None
    max_degree: int | None = None
    max_depth: int | None = None
    signature_bits: int = 48
    fallback_to_all_children: bool = True

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
