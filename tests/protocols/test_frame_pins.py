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
#: moved to the compact frame.  Every case was re-recorded once more when
#: the default IBLT cell narrowed to a 4-bit wrapped count and a 16-bit
#: checksum (the sets-of-sets child sketches keep 16 / 24).
FRAME_PINS = {
    "cascading": (
        "96df8468a5ad2ea2284d56d66f3e3ef07d9df72eaea7c901901de483227c9614", 81584,
    ),
    "cascading-unknown": (
        "6159c0b1adef488fefa456af03caf7bb51aa9e9c4df2efb74e9a2f81570d2bc6", 7936,
    ),
    "cascading-t-star": (
        "e31991f11cfece5d0ad68c43179df60ad9af49658433edf5f48e0eb9bd2907a1", 355036,
    ),
    "iblt_of_iblts": (
        "43a4ab766cfb52d1d13d98600a113462ea957f6ae95d758b792f98809f9a8727", 49824,
    ),
    "multiround": (
        "c4979a0d6fb1de66a5198fd1858b25a92d94904769af8d026df1d40619c1ff00", 10654,
    ),
    "forest": (
        "9aec50d7f825169a90f8358f2b9768ebf14cd2484bf79495cfb51dc5d63899d1", 338192,
    ),
    "degree_order": (
        "e35ceb066b7529d572dadccf53f77d579717e91c35d959a44a0d09462f943eb5"
        if _NUMPY_GRAPHS
        else "5d0c41c77efb7c25e429c297cdcdda3d97d5a455d3639620865d998bf5f00ce4",
        10328,
    ),
    "degree_neighborhood": (
        "fd6ef0017ee402d882ba69ed0a1dbe2552bff0f13b3c285063cdf2f161ee9760"
        if _NUMPY_GRAPHS
        else "e086d8c01acd854dfbdb7fdfbe2c06236336f7dc172f3c17d6c0496e7553a76d",
        2459372 if _NUMPY_GRAPHS else 2459452,
    ),
    "db": (
        "5cd2dba2b21c036a9a85803176a51b295f451f833ebb3abf48b572452ed8924e", 54672,
    ),
    "documents": (
        "33aa3cc1b2b793920b2061a611d6d0ebdb6dc350eacbf0f340483522a82847a9", 24338112,
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
