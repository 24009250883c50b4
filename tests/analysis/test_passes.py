"""Each analysis rule fires on its seeded fixture violation.

The fixture files under ``fixtures/`` are parsed (never executed) and wrapped
in :class:`SourceFile` objects with synthetic ``src/...`` relpaths, so each
pass sees them as the production code it scopes to.
"""

import ast
from pathlib import Path

from repro.analysis.base import SourceFile
from repro.analysis.passes import (
    AsyncioPass,
    DeterminismPass,
    ExceptionHygienePass,
    ProtocolPartyPass,
    TypingCompletenessPass,
    UnusedImportPass,
)
from repro.analysis.runner import find_root

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = find_root()


def load_fixture(name: str, relpath: str) -> SourceFile:
    path = FIXTURES / name
    text = path.read_text(encoding="utf-8")
    return SourceFile(
        path=path,
        relpath=relpath,
        text=text,
        tree=ast.parse(text),
        lines=text.splitlines(),
    )


def test_protocol_pass_flags_every_p_rule():
    source = load_fixture(
        "party_violations.py", "src/repro/protocols/parties/fixture_mod.py"
    )
    assert ProtocolPartyPass().interested_in(source)
    findings = list(ProtocolPartyPass().check_project(ROOT, [source]))
    rules = {finding.rule for finding in findings}
    assert {"P101", "P102", "P103", "P104", "P105"} <= rules
    # The uncharged Send is pinned to its exact line.
    p102 = [f for f in findings if f.rule == "P102"]
    assert any("uncharged" in f.message or f.line > 0 for f in p102)


def test_asyncio_pass_flags_every_a_rule():
    source = load_fixture("async_violations.py", "src/repro/service/fixture_mod.py")
    assert AsyncioPass().interested_in(source)
    rules = {finding.rule for finding in AsyncioPass().check_file(source)}
    assert rules == {"A201", "A202", "A203"}


def test_determinism_pass_flags_every_d_rule():
    source = load_fixture(
        "determinism_violations.py", "src/repro/iblt/fixture_mod.py"
    )
    assert DeterminismPass().interested_in(source)
    rules = {finding.rule for finding in DeterminismPass().check_file(source)}
    assert rules == {"D301", "D302", "D303", "D304", "D305"}


def test_exception_pass_flags_swallowing_handler():
    source = load_fixture(
        "exception_violations.py", "src/repro/service/fixture_mod.py"
    )
    findings = list(ExceptionHygienePass().check_file(source))
    assert [finding.rule for finding in findings] == ["E401"]


def test_exception_pass_accepts_reraise_and_log():
    text = (
        "import logging\n"
        "logger = logging.getLogger(__name__)\n"
        "def narrow():\n"
        "    try:\n"
        "        risky()\n"
        "    except Exception as exc:\n"
        "        raise RuntimeError('wrapped') from exc\n"
        "def logged():\n"
        "    try:\n"
        "        risky()\n"
        "    except Exception:\n"
        "        logger.exception('unexpected')\n"
    )
    source = SourceFile(
        path=Path("mem.py"),
        relpath="src/repro/service/mem.py",
        text=text,
        tree=ast.parse(text),
        lines=text.splitlines(),
    )
    assert list(ExceptionHygienePass().check_file(source)) == []


def test_import_pass_flags_unused_import():
    source = load_fixture("import_violations.py", "src/repro/comm/fixture_mod.py")
    findings = list(UnusedImportPass().check_file(source))
    assert [finding.rule for finding in findings] == ["I501"]
    assert "json" in findings[0].message


def test_import_pass_flags_library_use_of_a_reconcile_alias():
    definition = "def reconcile_widgets(alice, bob, seed):\n    return None\n"
    alias_module = SourceFile(
        path=Path("mem.py"),
        relpath="src/repro/core/widgets.py",
        text=definition,
        tree=ast.parse(definition),
        lines=definition.splitlines(),
    )
    caller = load_fixture("alias_violations.py", "src/repro/bench/fixture_mod.py")
    findings = list(UnusedImportPass().check_project(ROOT, [alias_module, caller]))
    assert [(f.rule, f.path) for f in findings] == [("I502", caller.relpath)] * 3
    assert sorted(f.message.split()[0] for f in findings) == ["calls", "calls", "imports"]
    # The same file as a package __init__ is a re-export surface, not a caller.
    reexport = load_fixture("alias_violations.py", "src/repro/bench/__init__.py")
    assert list(UnusedImportPass().check_project(ROOT, [alias_module, reexport])) == []


def test_typing_pass_flags_untyped_def():
    source = load_fixture(
        "typing_violations.py", "src/repro/protocols/fixture_mod.py"
    )
    findings = list(TypingCompletenessPass().check_file(source))
    assert [finding.rule for finding in findings] == ["T701"]
    assert "untyped" in findings[0].message


def test_passes_scope_to_production_paths():
    """A fixture outside the pass's paths is ignored (tests never trip CI)."""
    source = load_fixture(
        "determinism_violations.py", "tests/analysis/fixtures/determinism_violations.py"
    )
    assert not DeterminismPass().interested_in(source)
    assert not AsyncioPass().interested_in(source)
    assert not ProtocolPartyPass().interested_in(source)
