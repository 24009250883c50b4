"""An unregistered tier name is refused, never resolved to another tier.

``numba`` was a registered cell backend and field kernel until the compiled
tier was deleted (no session could import it).  The name now gets the typed
error every other unregistered name gets, through every way of spelling the
request, instead of silently running on a tier the caller did not ask for.
The cell store has no registry left (``backend=`` names the one store), and
no environment variable.
"""

import pytest

import repro
from repro.errors import ParameterError
from repro.field import kernel_for
from repro.iblt import IBLT, IBLTParameters

PARAMS = IBLTParameters(num_cells=64, key_bits=32, seed=1)
SETS = ({1, 2, 3}, {2, 3, 4})
OPTIONS = dict(universe_size=100, difference_bound=4, seed=1)

#: seam -> (the refusal, keyword, environment variable or ``None``, a
#: protocol that resolves it, the direct entry point taking a name or ``None``).
SEAMS = {
    "cell": (
        r"unknown cell backend 'numba'; accepted: \['auto', 'numpy'\]", "backend", None,
        "ibf", lambda name: IBLT(PARAMS, backend=name),
    ),
    "kernel": (
        r"unknown field kernel 'numba'; registered: \['numpy', 'python'\]", "field_kernel",
        "REPRO_FIELD_KERNEL", "cpi", lambda name: kernel_for(1048583, name),
    ),
}


@pytest.mark.parametrize(
    "seam, via",
    [("cell", "keyword"), ("kernel", "keyword"), ("kernel", "environment")],
    ids=["cell-keyword", "kernel-keyword", "kernel-environment"],
)
def test_numba_is_an_unknown_name(monkeypatch, seam, via):
    error, keyword, variable, protocol, direct = SEAMS[seam]
    name, options = "numba", {**OPTIONS, keyword: "numba"}
    if via == "environment":
        monkeypatch.setenv(variable, "numba")
        name, options = None, OPTIONS
    with pytest.raises(ParameterError, match=error):
        direct(name)
    with pytest.raises(ParameterError, match=error):
        repro.reconcile(*SETS, protocol=protocol, **options)
