"""E4xx: exception hygiene.

* ``E401`` -- a broad handler (``except Exception`` / ``except BaseException``
  / bare ``except``) that neither re-raises nor logs.  Swallowing arbitrary
  exceptions hides real bugs behind "handled" paths; the repo's error seam
  (:mod:`repro.errors`) gives every expected failure a narrow type, so a
  broad catch is only legitimate when it re-raises (possibly wrapped),
  records the failure through a logger, or carries an audited
  ``# lint: allow[E401]`` pragma (e.g. probing for an optional dependency).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import AnalysisPass, Finding, SourceFile, call_name

_BROAD = frozenset({"Exception", "BaseException"})

#: Logger call prefixes that count as "the failure was recorded".
_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    if isinstance(handler.type, ast.Name):
        return handler.type.id in _BROAD
    if isinstance(handler.type, ast.Tuple):
        return any(
            isinstance(el, ast.Name) and el.id in _BROAD for el in handler.type.elts
        )
    return False


def _reraises_or_logs(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is not None:
                parts = name.split(".")
                if parts[-1] in _LOG_METHODS and any(
                    "log" in part.lower() for part in parts[:-1]
                ):
                    return True
    return False


class ExceptionHygienePass(AnalysisPass):
    name = "exceptions"
    rules = {
        "E401": "broad except handler must re-raise, log, or carry an "
        "audited pragma",
    }

    def interested_in(self, source: SourceFile) -> bool:
        return source.relpath.startswith("src/repro/")

    def check_file(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _is_broad(node) and not _reraises_or_logs(node):
                caught = (
                    ast.unparse(node.type) if node.type is not None else "everything"
                )
                yield Finding(
                    "E401",
                    f"broad 'except {caught}' neither re-raises nor logs; "
                    "narrow it to the error types this code actually handles",
                    source.relpath,
                    node.lineno,
                    node.col_offset,
                )
