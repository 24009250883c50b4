"""Library-wide configuration: the pluggable backend registries.

Two seams are configured here, both instances of the same registry pattern:

* **Cell-store backends** -- every IBLT stores its cells through a
  :class:`~repro.iblt.backends.CellStore` backend.
* **Field kernels** -- every GF(p) hot path (characteristic-polynomial
  evaluation, Gaussian elimination, polynomial products and root finding)
  runs through a :class:`~repro.field.kernels.FieldKernel`.

Implementations register themselves here (keyed by name) and callers pick
one in three ways, in decreasing precedence:

1. explicitly, via the ``backend=`` / ``field_kernel=`` keywords threaded
   through the protocol entry points;
2. process-wide, via :func:`set_default_cell_backend` /
   :func:`set_default_field_kernel` or the ``REPRO_CELL_BACKEND`` /
   ``REPRO_FIELD_KERNEL`` environment variables;
3. automatically (``"auto"``): the highest-priority implementation that is
   both importable and able to represent the parameters.

Selection is *graceful*: an implementation that is unavailable (NumPy not
installed) or that cannot represent the parameters (checksums wider than
64 bits, field moduli at or above ``2**31``) silently falls back down the
priority chain -- the vectorized NumPy tier to the pure-Python reference
implementation -- so callers never need to special-case a missing NumPy
or large moduli.  A name that is not registered never falls back:
it raises :class:`~repro.errors.ParameterError`.  Each seam registers
exactly those two classes; another tier plugs in with
:func:`register_cell_backend` / :func:`register_field_kernel` and a
``priority`` (``docs/backends.md``, ``docs/field-kernels.md``).
"""

from __future__ import annotations

import functools
import os
from typing import TYPE_CHECKING, Any, Generic, TypeVar

from repro.errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.field.kernels import FieldKernel
    from repro.iblt.backends import CellStore

#: Environment variable consulted when no explicit or process-wide default is set.
BACKEND_ENV_VAR = "REPRO_CELL_BACKEND"

#: Environment variable selecting the default GF(p) field kernel.
FIELD_KERNEL_ENV_VAR = "REPRO_FIELD_KERNEL"

#: Sentinel name meaning "pick the best available backend for these parameters".
AUTO_BACKEND = "auto"

_BackendClass = TypeVar("_BackendClass")


class _Registry(Generic[_BackendClass]):
    """Shared name -> class registry with default and graceful resolution.

    Registered classes expose ``name``, ``priority``, ``available()`` and
    ``supports(key)``; ``kind`` only labels error messages.  Both seams
    (cell stores, field kernels) are instances of this one implementation,
    so their selection semantics cannot drift apart.
    """

    def __init__(self, kind: str, env_var: str) -> None:
        self.kind = kind
        self.env_var = env_var
        self.classes: dict[str, type] = {}
        self.default: str | None = None

    def register(self, cls: type) -> type:
        name = cls.name
        if not name or name == AUTO_BACKEND:
            raise ParameterError(f"invalid {self.kind} name {name!r}")
        self.classes[name] = cls
        return cls

    def names(self) -> list[str]:
        return sorted(self.classes)

    def available(self) -> list[str]:
        return sorted(name for name, cls in self.classes.items() if cls.available())

    def lookup(self, name: str) -> type:
        try:
            return self.classes[name]
        except KeyError:
            raise ParameterError(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            ) from None

    def set_default(self, name: str | None) -> None:
        if name is not None and name != AUTO_BACKEND:
            self.lookup(name)  # validate eagerly
        self.default = name

    def effective_default(self) -> str:
        if self.default is not None:
            return self.default
        return os.environ.get(self.env_var) or AUTO_BACKEND

    def resolve(self, name: str | None, key: Any) -> type:
        """Resolve a request to a concrete class able to handle ``key``.

        ``name=None`` means "use the process default".  Unknown names raise
        :class:`~repro.errors.ParameterError`; known-but-unusable choices
        (missing dependency, unsupported parameters) fall back to the
        highest-priority registered class that does work.
        """
        requested = name if name is not None else self.effective_default()
        if requested != AUTO_BACKEND:
            cls = self.lookup(requested)
            if cls.available() and cls.supports(key):
                return cls
        candidates = sorted(
            (
                cls
                for cls in self.classes.values()
                if cls.available() and cls.supports(key)
            ),
            key=lambda cls: cls.priority,
            reverse=True,
        )
        if not candidates:  # pragma: no cover - reference classes always qualify
            raise ParameterError(f"no registered {self.kind} supports these parameters")
        return candidates[0]


_cell_registry: _Registry = _Registry("cell backend", BACKEND_ENV_VAR)
_kernel_registry: _Registry = _Registry("field kernel", FIELD_KERNEL_ENV_VAR)


# ---------------------------------------------------------------------------
# Cell-store backends
# ---------------------------------------------------------------------------


def register_cell_backend(cls: type["CellStore"]) -> type["CellStore"]:
    """Register a cell-store backend class under ``cls.name`` (decorator-friendly)."""
    return _cell_registry.register(cls)


def cell_backend_names() -> list[str]:
    """Names of all registered backends (available or not)."""
    return _cell_registry.names()


def available_cell_backends() -> list[str]:
    """Names of registered backends whose dependencies are importable."""
    return _cell_registry.available()


def cell_backend_class(name: str) -> type["CellStore"]:
    """Look up a registered backend class by name."""
    return _cell_registry.lookup(name)


def set_default_cell_backend(name: str | None) -> None:
    """Set (or with ``None`` clear) the process-wide default backend."""
    _cell_registry.set_default(name)


def default_cell_backend() -> str:
    """The effective default backend name (may be :data:`AUTO_BACKEND`)."""
    return _cell_registry.effective_default()


def resolve_cell_backend(name: str | None, params: Any) -> type["CellStore"]:
    """Resolve a backend request to a concrete class for ``params``.

    ``name=None`` means "use the process default".  Unknown names raise
    :class:`~repro.errors.ParameterError`; known-but-unusable backends
    (missing dependency, unsupported parameters) fall back to the
    highest-priority backend that does work.
    """
    return _cell_registry.resolve(name, params)


# ---------------------------------------------------------------------------
# Field kernels
# ---------------------------------------------------------------------------


def register_field_kernel(cls: type["FieldKernel"]) -> type["FieldKernel"]:
    """Register a field-kernel class under ``cls.name`` (decorator-friendly)."""
    registered = _kernel_registry.register(cls)
    _resolve_field_kernel_cached.cache_clear()
    return registered


def field_kernel_names() -> list[str]:
    """Names of all registered field kernels (available or not)."""
    return _kernel_registry.names()


def available_field_kernels() -> list[str]:
    """Names of registered field kernels whose dependencies are importable."""
    return _kernel_registry.available()


def field_kernel_class(name: str) -> type["FieldKernel"]:
    """Look up a registered field-kernel class by name."""
    return _kernel_registry.lookup(name)


def set_default_field_kernel(name: str | None) -> None:
    """Set (or with ``None`` clear) the process-wide default field kernel."""
    _kernel_registry.set_default(name)


def default_field_kernel() -> str:
    """The effective default field-kernel name (may be :data:`AUTO_BACKEND`)."""
    return _kernel_registry.effective_default()


@functools.lru_cache(maxsize=4096)
def _resolve_field_kernel_cached(requested: str, modulus: int) -> type["FieldKernel"]:
    return _kernel_registry.resolve(requested, modulus)


def resolve_field_kernel(name: str | None, modulus: int) -> type["FieldKernel"]:
    """Resolve a field-kernel request to a concrete class for ``modulus``.

    Same semantics as :func:`resolve_cell_backend` (protocols over very
    large universes degrade to the pure-Python reference kernel
    transparently), but memoized on ``(name, modulus)`` because the
    multiround protocol resolves a kernel once per (tiny) CPI exchange.
    """
    requested = name if name is not None else default_field_kernel()
    return _resolve_field_kernel_cached(requested, modulus)
