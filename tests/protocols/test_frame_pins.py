"""Frame-sequence pins for the sets-of-sets family and the applications on it.

``test_backcompat.py`` pins bit totals and the cross-backend suites pin
python == numpy; a hash or packing change made on both tiers at once passes
both.  These pins are over the bytes: SHA-256 of every frame (sender, label,
charged bits, serialized payload) of one session per protocol through
:class:`SerializingTransport`, on the ``protocol_fixtures`` instances.
"""

import hashlib

import pytest

import repro
from repro.graphs import random_graphs
from repro.protocols.transports import SerializingTransport

from protocol_fixtures import protocol_instances

SEED = 2018

#: ``gnp_random_graph`` draws from NumPy's generator when it is importable and
#: from ``random`` otherwise, so the two graph *instances* differ between the
#: CI legs (as in ``test_backcompat.py``); both legs were recorded.
_NUMPY_GRAPHS = random_graphs.np is not None


class RecordingTransport(SerializingTransport):
    """A serializing transport that also keeps every frame's exact bytes."""

    def __init__(self):
        super().__init__()
        self.frames = []

    def on_send(self, sender, send):
        data = super().on_send(sender, send)
        self.frames.append((sender, send.label, send.size_bits, data))
        return data


def frames_digest(frames):
    digest = hashlib.sha256()
    for sender, label, size_bits, data in frames:
        digest.update(f"{sender}|{label}|{size_bits}|{len(data)}|".encode())
        digest.update(data)
    return digest.hexdigest()


#: ``{case: (protocol, option overrides)}``.  ``cascading-t-star`` raises the
#: bound to the largest child so Algorithm 2's ``T*`` table is on the wire;
#: ``forest`` runs the Theorem 3.11 multiset-of-multisets parties.
CASES = {
    "cascading": ("cascading", {}),
    "cascading-unknown": ("cascading", {"difference_bound": None}),
    "cascading-t-star": ("cascading", {"difference_bound": 32}),
    "iblt_of_iblts": ("iblt_of_iblts", {}),
    "multiround": ("multiround", {}),
    "forest": ("forest", {}),
    "degree_order": ("degree_order", {}),
    "degree_neighborhood": ("degree_neighborhood", {}),
    "db": ("db", {}),
    "documents": ("documents", {}),
}

#: ``(frames digest, total charged bits)`` recorded at commit 1dc4f23, before
#: the child-encoding pass was batched across cascade levels.  ``multiround``
#: was re-recorded once, when the per-child L0 estimators of its round 2
#: moved to the compact frame.
FRAME_PINS = {
    "cascading": (
        "4d2abdae931d6b273adbf2f9164029e04e4444bbd5b9f0b70f89bd825e61039c", 84160,
    ),
    "cascading-unknown": (
        "9568e6b9e7f9ab1f41e733d975dcfd98b0e5e6f168f37899535f210f00bcced3", 8272,
    ),
    "cascading-t-star": (
        "abca6743077b8221f70d696d16d3c78469703954d1de16fdd26613f76afbc56f", 363884,
    ),
    "iblt_of_iblts": (
        "21384e66206981e5d5d6c813ccfb0017cb55d13d619bc1e2ad014b4088cf9fc7", 50944,
    ),
    "multiround": (
        "9ba7f7a579cb458f04fc1cb9f38976c82ab7e02eb13bc9480518f161491fec6c", 11338,
    ),
    "forest": (
        "6cc4ea20c683b913ec94129921567299d51768ffd0048794ecb74efd0e08908e", 348048,
    ),
    "degree_order": (
        "29c325e95a052be46359f33fa03a75ae7cf694ed0c5e248e2af580ca5bff0f1f"
        if _NUMPY_GRAPHS
        else "bb86c577893100ecd5d6ee7727d8ba54d18dbc6ff521c329c972dffc1015103d",
        11112,
    ),
    "degree_neighborhood": (
        "c5421790198cc3a8f32aa734755e8da793a3daecd71e212ce55072563040ddb4"
        if _NUMPY_GRAPHS
        else "1bd40d7b55603d874411b9f609d2825cdd64bcf21c856c1decc97e20f885fb74",
        2519740 if _NUMPY_GRAPHS else 2519484,
    ),
    "db": (
        "a45e718166dbc01bd335e8099ce418bb60b474a1ce2399efa3c4f866bdf9d3d9", 57024,
    ),
    "documents": (
        "f0748f6ca07ade5807f0d5a201ba95653fa83405b05f704b48d143b4dafd4000", 24358720,
    ),
}


def session_frames(case, backend=None):
    protocol, overrides = CASES[case]
    alice, bob, kwargs = protocol_instances()[protocol]
    transport = RecordingTransport()
    result = repro.reconcile(
        alice, bob, protocol=protocol, seed=SEED, transport=transport,
        backend=backend, **{**kwargs, **overrides},
    )
    return transport.frames, result


@pytest.mark.parametrize("backend", [None, "python"], ids=["default", "python"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_session_frames_match_the_recorded_pins(case, backend):
    frames, result = session_frames(case, backend)
    assert result.success, result.details
    assert (frames_digest(frames), result.total_bits) == FRAME_PINS[case]


def test_the_t_star_case_sends_t_star():
    _, result = session_frames("cascading-t-star")
    assert result.details["used_t_star"]
    _, plain = session_frames("cascading")
    assert not plain.details["used_t_star"]
