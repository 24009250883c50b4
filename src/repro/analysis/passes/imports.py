"""I5xx: import hygiene.

* ``I501`` -- a module-level import that no code in the module references.
  ``__init__.py`` files are exempt (re-export surface), as is anything named
  in ``__all__`` and explicit ``import name as name`` re-exports (the PEP
  484 convention).
* ``I502`` -- a library module imports or calls a per-protocol
  ``reconcile_*`` alias (a top-level ``reconcile_*`` function under
  :data:`ALIAS_PATHS`).  Each alias builds one party pair and runs it in
  memory; a module composing aliases would fork a protocol away from the
  parties every transport and the service run, so composites are built from
  ``*_parties`` and ``yield from``.  ``__init__.py`` re-exports are exempt.

``I501`` is the dependency-hygiene slice of ruff's ``F401`` implemented on
the stdlib AST, so the gate also runs in environments where ruff cannot be
installed (the check in CI runs both; they must agree).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.base import AnalysisPass, Finding, SourceFile, call_name

#: Packages whose top-level ``reconcile_*`` functions are per-protocol aliases.
ALIAS_PATHS = tuple(
    f"src/repro/{package}/" for package in ("core", "graphs", "db", "documents")
)


def _binding_name(alias: ast.alias) -> str:
    if alias.asname is not None:
        return alias.asname
    return alias.name.split(".")[0]


def _names_in_annotation(annotation: ast.expr | None, used: set[str]) -> None:
    """Record names in an annotation, including quoted string annotations."""
    if annotation is None:
        return
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            parsed = ast.parse(annotation.value, mode="eval")
        except SyntaxError:
            return
        for node in ast.walk(parsed):
            if isinstance(node, ast.Name):
                used.add(node.id)
        return
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            _names_in_annotation(node, used)


def _collect_used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                args.posonlyargs
                + args.args
                + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                _names_in_annotation(arg.annotation, used)
            _names_in_annotation(node.returns, used)
        elif isinstance(node, ast.AnnAssign):
            _names_in_annotation(node.annotation, used)
    return used


def _declared_all(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
            value = node.value
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            for el in value.elts:
                if isinstance(el, ast.Constant) and isinstance(el.value, str):
                    names.add(el.value)
    return names


def _availability_probe_imports(tree: ast.Module) -> set[int]:
    """Imports inside ``try: import x / except ImportError`` probe blocks.

    The optional-dependency probe idiom imports a module purely to learn
    whether it is installed; the bound name is legitimately unused.
    """
    probe_ids: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try):
            continue
        catches_import_error = False
        for handler in node.handlers:
            types = (
                handler.type.elts
                if isinstance(handler.type, ast.Tuple)
                else [handler.type]
            )
            for t in types:
                if isinstance(t, ast.Name) and t.id in {
                    "ImportError",
                    "ModuleNotFoundError",
                    "Exception",
                }:
                    catches_import_error = True
        if not catches_import_error:
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                probe_ids.add(id(stmt))
    return probe_ids


class UnusedImportPass(AnalysisPass):
    name = "imports"
    rules = {
        "I501": "imported name is never used (and not re-exported)",
        "I502": "library module imports or calls a per-protocol reconcile_* "
        "alias (compose the parties instead)",
    }

    def interested_in(self, source: SourceFile) -> bool:
        return source.relpath.startswith("src/repro/") and not source.relpath.endswith(
            "__init__.py"
        )

    def check_file(self, source: SourceFile) -> Iterator[Finding]:
        used = _collect_used_names(source.tree)
        exported = _declared_all(source.tree)
        probes = _availability_probe_imports(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if id(node) in probes:
                continue  # availability probe: the import *is* the use
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                if alias.asname is not None and alias.asname == alias.name:
                    continue  # explicit `import name as name` re-export
                bound = _binding_name(alias)
                if bound in used or bound in exported:
                    continue
                yield Finding(
                    "I501",
                    f"imported name {bound!r} is never used",
                    source.relpath,
                    node.lineno,
                    node.col_offset,
                )

    def check_project(
        self, root: Path, sources: Sequence[SourceFile]
    ) -> Iterator[Finding]:
        aliases = {
            node.name
            for source in sources
            if source.relpath.startswith(ALIAS_PATHS)
            for node in source.tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("reconcile_")
        }
        for source in sources:
            if not self.interested_in(source):
                continue
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ImportFrom):
                    uses = [("imports", alias.name) for alias in node.names]
                elif isinstance(node, ast.Call):
                    uses = [("calls", (call_name(node) or "").rpartition(".")[2])]
                else:
                    continue
                for verb, name in uses:
                    if name in aliases:
                        yield Finding(
                            "I502",
                            f"{verb} the per-protocol alias {name!r}; compose "
                            "*_parties (or call repro.reconcile) instead",
                            source.relpath,
                            node.lineno,
                            node.col_offset,
                        )
