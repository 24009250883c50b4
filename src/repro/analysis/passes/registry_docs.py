"""R6xx: registry / documentation / test-coverage consistency.

The protocol registry and the two field kernels are the source of truth
for what the library serves.  Everything that *describes* them -- the README
protocol table, the docs pages, and the cross-transport
determinism coverage list in the test suite -- must agree, or a freshly
registered protocol could ship unserved, undocumented, and untested without
any test noticing.

* ``R601`` -- a registered protocol's generated table row is missing from
  the README protocol table.
* ``R602`` -- a registered protocol is not named in docs/protocols.md.
* ``R603`` -- a registered protocol has no instance in
  ``tests/protocols/protocol_fixtures.py`` (the list that feeds the
  cross-transport determinism suite); an uncovered protocol would escape
  the byte-identity tests entirely.
* ``R604`` -- an accepted field-kernel name is not documented in docs/field-kernels.md.
* ``R605`` -- incoherent registry metadata (``supports_unknown_d`` without
  ``rounds_unknown`` or vice versa, an unknown ``input_kind``, or empty
  summary/reference).
* ``R606`` -- a docs page with no row in the README documentation index.

Unlike the AST passes this one *imports* the protocol registry and the
kernels: the set of registered protocols is runtime state by design
(registration is open), and the import is exactly what
``python -m repro.analysis`` already paid for.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.base import AnalysisPass, Finding, SourceFile

#: ``input_kind`` values the service/docs layers know how to describe.
KNOWN_INPUT_KINDS = frozenset(
    {"set", "set_of_sets", "graph", "forest", "table", "documents", "kv"}
)

_FIXTURES = "tests/protocols/protocol_fixtures.py"


def _fixture_instance_names(path: Path) -> set[str] | None:
    """Keys assigned as ``instances["name"] = ...`` in the fixtures module."""
    if not path.exists():
        return None
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id == "instances"
                and isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)
            ):
                names.add(target.slice.value)
    return names


class RegistryDocsPass(AnalysisPass):
    name = "registry"
    rules = {
        "R601": "registered protocol missing from the README protocol table",
        "R602": "registered protocol not named in docs/protocols.md",
        "R603": "registered protocol has no cross-transport determinism "
        "fixture instance",
        "R604": "field kernel name missing from its docs page",
        "R605": "incoherent protocol registry metadata",
        "R606": "docs page missing from the README documentation index",
    }

    def check_project(
        self, root: Path, sources: Sequence[SourceFile]
    ) -> Iterator[Finding]:
        from repro.field.kernels import FIELD_KERNEL_NAMES
        from repro.protocols import registry

        readme = self._read(root / "README.md")
        protocols_doc = self._read(root / "docs" / "protocols.md")
        kernels_doc = self._read(root / "docs" / "field-kernels.md")
        fixture_names = _fixture_instance_names(root / _FIXTURES)

        registry_py = "src/repro/protocols/registry.py"
        table_rows = {
            line.split("|")[1].strip().strip("`"): line
            for line in registry.registry_table_markdown().strip().splitlines()
            if line.startswith("| `")
        }
        for spec in registry.specs():
            tag = f"`{spec.name}`"
            row = table_rows.get(spec.name)
            if readme is not None and (row is None or row not in readme):
                yield Finding(
                    "R601",
                    f"protocol {spec.name!r}: its generated registry table "
                    "row is missing from (or stale in) the README protocol "
                    "table",
                    "README.md",
                    1,
                )
            if protocols_doc is not None and tag not in protocols_doc:
                yield Finding(
                    "R602",
                    f"protocol {spec.name!r} is not named in docs/protocols.md",
                    "docs/protocols.md",
                    1,
                )
            if fixture_names is not None and spec.name not in fixture_names:
                yield Finding(
                    "R603",
                    f"protocol {spec.name!r} has no instance in {_FIXTURES}; "
                    "the cross-transport determinism suite will not cover it",
                    _FIXTURES,
                    1,
                )
            yield from self._check_metadata(spec, registry_py)

        for name in FIELD_KERNEL_NAMES:
            if kernels_doc is not None and f"`{name}`" not in kernels_doc:
                yield Finding(
                    "R604",
                    f"field kernel name {name!r} is not documented in "
                    "docs/field-kernels.md",
                    "docs/field-kernels.md",
                    1,
                )

        if readme is not None:
            docs_dir = root / "docs"
            if docs_dir.is_dir():
                for page in sorted(docs_dir.glob("*.md")):
                    if f"docs/{page.name}" not in readme:
                        yield Finding(
                            "R606",
                            f"docs/{page.name} has no row in the README "
                            "documentation index",
                            "README.md",
                            1,
                        )

    def _check_metadata(self, spec: object, registry_py: str) -> Iterator[Finding]:
        name = getattr(spec, "name", "")
        problems: list[str] = []
        supports = bool(getattr(spec, "supports_unknown_d", False))
        rounds_unknown = getattr(spec, "rounds_unknown", None)
        if supports != (rounds_unknown is not None):
            problems.append(
                "supports_unknown_d and rounds_unknown disagree "
                f"(supports_unknown_d={supports}, rounds_unknown={rounds_unknown!r})"
            )
        input_kind = getattr(spec, "input_kind", "")
        if input_kind not in KNOWN_INPUT_KINDS:
            problems.append(f"unknown input_kind {input_kind!r}")
        if not getattr(spec, "summary", ""):
            problems.append("empty summary")
        if not getattr(spec, "reference", ""):
            problems.append("empty reference")
        for problem in problems:
            yield Finding(
                "R605", f"protocol {name!r}: {problem}", registry_py, 1
            )

    @staticmethod
    def _read(path: Path) -> str | None:
        if not path.exists():
            return None
        return path.read_text(encoding="utf-8")
