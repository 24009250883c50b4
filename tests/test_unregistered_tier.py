"""An unknown tier name is refused, never resolved to another tier.

``numba`` was a cell backend and field kernel until the compiled tier was
deleted (no session could import it).  The name now gets the typed error
every other unknown name gets, through every way of spelling the request,
instead of silently running on a tier the caller did not ask for.
:class:`~repro.protocols.options.ReconcileOptions` checks both names once,
so a protocol that never reads one (``ibf`` builds no GF(p) field) refuses
it too.  Neither tier is chosen by an environment variable.
"""

import pytest

import repro
from repro.errors import ParameterError
from repro.field import kernel_for
from repro.iblt import IBLT, IBLTParameters

PARAMS = IBLTParameters(num_cells=64, key_bits=32, seed=1)
SETS = ({1, 2, 3}, {2, 3, 4})
OPTIONS = dict(universe_size=100, difference_bound=4, seed=1)

#: seam -> (the refusal, keyword, the direct entry point taking a name).
SEAMS = {
    "cell": (
        r"unknown cell backend 'numba'; accepted: \['auto', 'numpy'\]", "backend",
        lambda name: IBLT(PARAMS, backend=name),
    ),
    "kernel": (
        r"unknown field kernel 'numba'; accepted: \['auto', 'numpy'\]",
        "field_kernel", lambda name: kernel_for(1048583, name),
    ),
}


@pytest.mark.parametrize(
    "seam, protocol",
    [("cell", "ibf"), ("kernel", "cpi"), ("kernel", "ibf")],
    ids=["cell-keyword", "kernel-keyword", "kernel-keyword-ibf"],
)
def test_numba_is_an_unknown_name(seam, protocol):
    error, keyword, direct = SEAMS[seam]
    with pytest.raises(ParameterError, match=error):
        direct("numba")
    with pytest.raises(ParameterError, match=error):
        repro.reconcile(*SETS, protocol=protocol, **{**OPTIONS, keyword: "numba"})
