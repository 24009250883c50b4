"""Pytest bootstrap: make the ``src`` layout importable without installation.

The library is normally installed with ``pip install -e .`` (or
``python setup.py develop`` in offline environments); this shim lets the test
and benchmark suites run straight from a source checkout as well.
"""

import signal
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

# Test helpers that are not tests (the IBLT reference store, the reference
# field kernel) import by name.
_TESTS = Path(__file__).resolve().parent / "tests"
if str(_TESTS) not in sys.path:
    sys.path.append(str(_TESTS))


# ---------------------------------------------------------------------------
# Timeout guard for socket/asyncio tests
# ---------------------------------------------------------------------------
#
# CI installs pytest-timeout and runs with an explicit --timeout, so a hung
# socket test can never stall a job.  Offline checkouts may not have the
# plugin; this fallback honors @pytest.mark.timeout(N) with SIGALRM on
# platforms that have it, so the guard holds wherever the suite runs.

try:
    import pytest_timeout  # noqa: F401  (the real plugin takes precedence)

    _HAVE_TIMEOUT_PLUGIN = True
except ImportError:
    _HAVE_TIMEOUT_PLUGIN = False


def pytest_configure(config):
    if not _HAVE_TIMEOUT_PLUGIN:
        config.addinivalue_line(
            "markers",
            "timeout(seconds): fail the test if it runs longer than this "
            "(pytest-timeout when installed, SIGALRM fallback otherwise)",
        )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("timeout")
    use_alarm = (
        marker is not None
        and not _HAVE_TIMEOUT_PLUGIN
        and hasattr(signal, "SIGALRM")
        and marker.args
    )
    if not use_alarm:
        return (yield)
    seconds = int(marker.args[0])

    def _expired(signum, frame):
        raise TimeoutError(f"test exceeded its {seconds}s timeout marker")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(seconds)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
