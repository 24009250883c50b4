"""T7xx: typing completeness for the strict-typed packages.

``pyproject.toml`` gates ``repro.protocols``, ``repro.comm``,
``repro.service``, ``repro.store``, ``repro.cluster``, ``repro.graphs`` and
this analysis package behind ``mypy --strict`` in CI.  mypy cannot run in every
environment this repo targets (offline images without the toolchain), so
this pass enforces the *completeness* half of strictness -- every function
fully annotated -- on the stdlib AST, everywhere:

* ``T701`` -- a function in a strict-typed package with unannotated
  parameters or no return annotation.  This is exactly mypy's
  ``disallow_untyped_defs``/``disallow_incomplete_defs`` surface, so a tree
  that passes this pass cannot regress the CI gate by *omission* (only by a
  semantic type error, which only mypy can see).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import AnalysisPass, Finding, SourceFile

#: Packages (and modules) under the mypy --strict gate.
STRICT_TYPED_PATHS = (
    "src/repro/protocols/",
    "src/repro/comm/",
    "src/repro/service/",
    "src/repro/store/",
    "src/repro/cluster/",
    "src/repro/analysis/",
    "src/repro/graphs/",
)


def _missing_annotations(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = func.args
    positional = args.posonlyargs + args.args
    missing: list[str] = []
    for index, arg in enumerate(positional):
        if index == 0 and arg.arg in {"self", "cls"}:
            continue
        if arg.annotation is None:
            missing.append(arg.arg)
    missing.extend(arg.arg for arg in args.kwonlyargs if arg.annotation is None)
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append(f"*{args.vararg.arg}")
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append(f"**{args.kwarg.arg}")
    if func.returns is None:
        missing.append("return")
    return missing


class TypingCompletenessPass(AnalysisPass):
    name = "typing"
    rules = {
        "T701": "function in a strict-typed package must be fully annotated",
    }

    def interested_in(self, source: SourceFile) -> bool:
        return any(source.relpath.startswith(p) for p in STRICT_TYPED_PATHS)

    def check_file(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            missing = _missing_annotations(node)
            if missing:
                yield Finding(
                    "T701",
                    f"{node.name}() is missing annotations for: "
                    + ", ".join(missing),
                    source.relpath,
                    node.lineno,
                    node.col_offset,
                )
