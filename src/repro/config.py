"""Library-wide configuration: the field-kernel registry.

Every GF(p) hot path (characteristic-polynomial evaluation, Gaussian
elimination, polynomial products and root finding) runs through a
:class:`~repro.field.kernels.FieldKernel`.  Kernels register themselves here
(keyed by name) and callers pick one in three ways, in decreasing
precedence:

1. explicitly, via the ``field_kernel=`` keyword threaded through the
   protocol entry points;
2. process-wide, via :func:`set_default_field_kernel` or the
   ``REPRO_FIELD_KERNEL`` environment variable;
3. automatically (``"auto"``): the highest-priority kernel able to take the
   modulus.

Selection is *graceful*: a kernel that cannot take the modulus (the NumPy
kernel at or above ``2**31``) falls back down the priority chain to the
pure-Python reference kernel, so callers never special-case large moduli.
A name that is not registered never falls back: it raises
:class:`~repro.errors.ParameterError`.  Another kernel plugs in with
:func:`register_field_kernel` and a ``priority``
(``docs/field-kernels.md``).

The IBLT has one cell store (:mod:`repro.iblt.backends`) and no registry.
"""

from __future__ import annotations

import functools
import os
from typing import TYPE_CHECKING, Any, Generic, TypeVar

from repro.errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.field.kernels import FieldKernel

#: Environment variable selecting the default GF(p) field kernel.
FIELD_KERNEL_ENV_VAR = "REPRO_FIELD_KERNEL"

#: Sentinel name meaning "pick the best kernel for this modulus".
AUTO_BACKEND = "auto"

_BackendClass = TypeVar("_BackendClass")


class _Registry(Generic[_BackendClass]):
    """Name -> class registry with default and graceful resolution.

    Registered classes expose ``name``, ``priority``, ``available()`` and
    ``supports(key)``; ``kind`` only labels error messages.
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


_kernel_registry: _Registry = _Registry("field kernel", FIELD_KERNEL_ENV_VAR)


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

    ``name=None`` means "use the process default".  Unknown names raise
    :class:`~repro.errors.ParameterError`; a kernel that cannot take the
    modulus falls back to the highest-priority one that can (protocols over
    very large universes degrade to the pure-Python reference kernel
    transparently).  Memoized on ``(name, modulus)`` because the
    multiround protocol resolves a kernel once per (tiny) CPI exchange.
    """
    requested = name if name is not None else default_field_kernel()
    return _resolve_field_kernel_cached(requested, modulus)
