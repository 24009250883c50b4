"""P1xx: the protocol-party linter.

Walks every generator in the party modules (``repro/protocols/parties/``,
``repro/store/parties.py`` and ``repro/cluster/parties.py``, i.e.
:data:`PARTY_PATHS`) and enforces the session contract:

* ``P101`` -- a party generator may yield only ``Send(...)``, ``Receive(...)``
  or ``yield from`` another party generator.  Anything else would reach
  :func:`repro.protocols.session.run_session` as an unknown command.
* ``P102`` -- every ``Send`` must charge an explicit ``size_bits``
  expression; an uncharged message would silently corrupt the transcript's
  bit accounting (the quantity the whole benchmark suite measures).
* ``P103`` -- every ``Send`` must name a wire codec.  ``codec=None``
  raises :class:`~repro.protocols.wire.WireError` when the command is built,
  so the protocol runs on no transport at all.
* ``P104`` -- every ``Receive`` must name the codec it expects, for the same
  reason.
* ``P105`` -- alice/bob generator pairs must be conversation-balanced: the
  number of ``Send`` sites on one side must equal the number of ``Receive``
  sites on the other (after transitively resolving ``yield from`` chains),
  and both sides must delegate to unresolvable sub-parties (generators
  received as parameters) the same number of times.  An unbalanced pair
  deadlocks or drops a message at session time.

Balance is *structural* (yield sites, not dynamic executions): the repo's
parties mirror their control flow on both sides -- a retry loop on one side
has a matching loop on the other -- so matching site counts is exactly the
invariant that keeps a new branch on one side from deadlocking the other.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.base import AnalysisPass, Finding, SourceFile, walk_own_body

#: Party modules: every generator here is held to the session contract.
PARTY_PATHS = (
    "src/repro/protocols/parties/",
    "src/repro/store/parties.py",
    "src/repro/cluster/parties.py",
)

#: Names of the session commands a party may yield.
_COMMANDS = frozenset({"Send", "Receive"})


@dataclass
class _GeneratorSummary:
    """Static conversation summary of one generator function."""

    qualname: str
    source: SourceFile
    node: ast.FunctionDef
    sends: list[ast.Call] = field(default_factory=list)
    receives: list[ast.Call] = field(default_factory=list)
    #: Simple callee names of ``yield from <name>(...)`` sites.
    delegations: list[str] = field(default_factory=list)
    #: ``yield from`` sites whose target is not a statically known name
    #: (e.g. a generator passed in as a parameter).
    opaque: int = 0
    bad_yields: list[ast.expr | ast.stmt] = field(default_factory=list)


@dataclass
class _Resolved:
    """Transitively resolved conversation counts."""

    sends: int = 0
    receives: int = 0
    opaque: int = 0


def _command_name(value: ast.expr) -> str | None:
    """``Send``/``Receive`` when ``value`` calls one of them, else ``None``."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        if value.func.id in _COMMANDS:
            return value.func.id
    return None


def _delegation_target(value: ast.expr) -> str | None:
    """The simple callee name of a ``yield from target(...)`` expression."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id
    if isinstance(value, ast.Name):
        return value.id
    return None


def _summarize(
    qualname: str, source: SourceFile, func: ast.FunctionDef
) -> _GeneratorSummary | None:
    """Summarize ``func``'s yields; ``None`` when it is not a generator."""
    summary = _GeneratorSummary(qualname, source, func)
    is_generator = False
    for node in walk_own_body(func):
        if isinstance(node, ast.YieldFrom):
            is_generator = True
            target = _delegation_target(node.value)
            if target is None:
                summary.opaque += 1
            else:
                summary.delegations.append(target)
        elif isinstance(node, ast.Yield):
            is_generator = True
            if node.value is None:
                summary.bad_yields.append(node)
                continue
            command = _command_name(node.value)
            if command == "Send":
                summary.sends.append(node.value)
            elif command == "Receive":
                summary.receives.append(node.value)
            else:
                summary.bad_yields.append(node.value)
    return summary if is_generator else None


def _call_has_argument(call: ast.Call, position: int, keyword: str) -> bool:
    """Whether ``call`` passes the argument, positionally or by keyword.

    An explicit ``keyword=None`` does not count: passing ``codec=None`` is
    the same contract violation as omitting it.  A ``**kwargs`` splat counts
    as provided (the checker cannot see inside it).
    """
    if len(call.args) > position:
        provided = call.args[position]
    else:
        matches = [kw.value for kw in call.keywords if kw.arg == keyword]
        if not matches:
            return any(kw.arg is None for kw in call.keywords)
        provided = matches[0]
    return not (isinstance(provided, ast.Constant) and provided.value is None)


def _swap_role(qualname: str) -> str | None:
    """The partner generator's qualname, or ``None`` for non-party names."""
    if "alice" in qualname:
        return qualname.replace("alice", "bob")
    if "bob" in qualname:
        return qualname.replace("bob", "alice")
    return None


def _functions_with_qualnames(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef]]:
    """``(qualname, node)`` for every function definition, including nested."""

    def visit(node: ast.AST, prefix: str) -> Iterator[tuple[str, ast.FunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                if isinstance(child, ast.FunctionDef):
                    yield qualname, child
                yield from visit(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")
            else:
                yield from visit(child, prefix)

    return visit(tree, "")


class ProtocolPartyPass(AnalysisPass):
    name = "protocol"
    rules = {
        "P101": "party generators may only yield Send/Receive or delegate "
        "with 'yield from'",
        "P102": "Send must charge an explicit size_bits expression",
        "P103": "Send must name a wire codec (codec=None breaks every "
        "transport)",
        "P104": "Receive must name the codec it expects",
        "P105": "alice/bob pair is not conversation-balanced",
    }

    def interested_in(self, source: SourceFile) -> bool:
        return any(source.relpath.startswith(p) for p in PARTY_PATHS)

    def check_project(
        self, root: Path, sources: Sequence[SourceFile]
    ) -> Iterator[Finding]:
        party_files = [s for s in sources if self.interested_in(s)]
        summaries: list[_GeneratorSummary] = []
        # Delegation targets resolve through top-level names: parties compose
        # across modules (`yield from ibf_alice(...)` inside a graph
        # party) and top-level party names are globally unique.  A name
        # defined at top level in two party modules would be ambiguous, so
        # it is dropped from the table (treated as opaque).
        top_level: dict[str, _GeneratorSummary | None] = {}
        for source in party_files:
            for qualname, func in _functions_with_qualnames(source.tree):
                summary = _summarize(qualname, source, func)
                if summary is None:
                    continue
                summaries.append(summary)
                if "." not in qualname:
                    top_level[qualname] = (
                        None if qualname in top_level else summary
                    )
        for summary in summaries:
            yield from self._check_yield_shapes(summary)
        yield from self._check_balance(summaries, top_level)

    # -- per-site rules ---------------------------------------------------------

    def _check_yield_shapes(self, summary: _GeneratorSummary) -> Iterator[Finding]:
        relpath = summary.source.relpath
        for bad in summary.bad_yields:
            rendered = "a bare yield" if isinstance(bad, ast.Yield) else ast.unparse(bad)
            yield Finding(
                "P101",
                f"{summary.qualname} yields {rendered}; party generators may "
                "only yield Send/Receive",
                relpath,
                bad.lineno,
                bad.col_offset,
            )
        for send in summary.sends:
            if not _call_has_argument(send, 1, "size_bits"):
                yield Finding(
                    "P102",
                    f"Send in {summary.qualname} charges no size_bits",
                    relpath,
                    send.lineno,
                    send.col_offset,
                )
            if not _call_has_argument(send, 3, "codec"):
                yield Finding(
                    "P103",
                    f"Send in {summary.qualname} names no wire codec",
                    relpath,
                    send.lineno,
                    send.col_offset,
                )
        for receive in summary.receives:
            if not _call_has_argument(receive, 0, "codec"):
                yield Finding(
                    "P104",
                    f"Receive in {summary.qualname} names no codec",
                    relpath,
                    receive.lineno,
                    receive.col_offset,
                )

    # -- conversation balance ---------------------------------------------------

    def _resolve(
        self,
        summary: _GeneratorSummary,
        top_level: dict[str, _GeneratorSummary | None],
        stack: frozenset[str],
    ) -> _Resolved:
        resolved = _Resolved(
            sends=len(summary.sends),
            receives=len(summary.receives),
            opaque=summary.opaque,
        )
        for target in summary.delegations:
            sub = top_level.get(target)
            if sub is None or sub.qualname in stack:
                resolved.opaque += 1
                continue
            nested = self._resolve(sub, top_level, stack | {summary.qualname})
            resolved.sends += nested.sends
            resolved.receives += nested.receives
            resolved.opaque += nested.opaque
        return resolved

    def _check_balance(
        self,
        summaries: list[_GeneratorSummary],
        top_level: dict[str, _GeneratorSummary | None],
    ) -> Iterator[Finding]:
        by_key = {
            (summary.source.relpath, summary.qualname): summary
            for summary in summaries
        }
        for (relpath, qualname), summary in by_key.items():
            if "bob" in qualname:
                continue  # report each pair once, from the alice side
            partner_name = _swap_role(qualname)
            if partner_name is None or partner_name == qualname:
                continue
            partner = by_key.get((relpath, partner_name))
            if partner is None:
                continue
            mine = self._resolve(summary, top_level, frozenset({qualname}))
            theirs = self._resolve(partner, top_level, frozenset({partner_name}))
            problems: list[str] = []
            if mine.sends != theirs.receives:
                problems.append(
                    f"{qualname} has {mine.sends} Send site(s) but "
                    f"{partner_name} has {theirs.receives} Receive site(s)"
                )
            if mine.receives != theirs.sends:
                problems.append(
                    f"{qualname} has {mine.receives} Receive site(s) but "
                    f"{partner_name} has {theirs.sends} Send site(s)"
                )
            if mine.opaque != theirs.opaque:
                problems.append(
                    f"{qualname} delegates to {mine.opaque} opaque "
                    f"sub-parties, {partner_name} to {theirs.opaque}"
                )
            if problems:
                yield Finding(
                    "P105",
                    "; ".join(problems),
                    relpath,
                    summary.node.lineno,
                    summary.node.col_offset,
                )
