"""Domain-aware static analysis for the reconciliation codebase.

The test suite enforces the repo's core guarantee -- byte-identical
transcripts across field kernels and transports --
*dynamically*; this package enforces the invariants that make those tests
meaningful *statically*, at lint time:

* **Protocol parties** (:mod:`repro.analysis.passes.protocol`): every party
  generator yields only ``Send``/``Receive``/``yield from``, every ``Send``
  charges ``size_bits`` and names a wire codec, and each alice/bob pair is
  conversation-balanced.
* **Asyncio discipline** (:mod:`repro.analysis.passes.asynclint`): no
  blocking calls inside ``async def`` bodies in the service/store layers, no
  synchronous locks held across ``await``, no fire-and-forget tasks.
* **Determinism** (:mod:`repro.analysis.passes.determinism`): no unseeded
  randomness, wall-clock reads or hash-order-dependent iteration in the
  wire-identity-critical packages.
* **Registry/doc consistency** (:mod:`repro.analysis.passes.registry_docs`):
  the protocol/backend/kernel registries, the docs tables, and the
  cross-transport determinism coverage list cannot drift apart.
* **Exception hygiene** (:mod:`repro.analysis.passes.exceptions`): broad
  ``except`` handlers must re-raise, log, or carry an audited pragma.
* **Unused imports** (:mod:`repro.analysis.passes.imports`) and **typing
  completeness** (:mod:`repro.analysis.passes.annotations`): the strict-typed
  packages stay fully annotated even where mypy is not installed.

Run ``python -m repro.analysis`` from the repo root (``--json`` for CI).
Audited violations are suppressed with an inline pragma::

    rng = random.Random()  # lint: allow[D301] reason for the exemption

or with an entry in :mod:`repro.analysis.allowlist`.
"""

from __future__ import annotations

from repro.analysis.base import AnalysisPass, Finding, SourceFile
from repro.analysis.runner import all_passes, analyze, discover_files, find_root

__all__ = [
    "AnalysisPass",
    "Finding",
    "SourceFile",
    "all_passes",
    "analyze",
    "discover_files",
    "find_root",
]
