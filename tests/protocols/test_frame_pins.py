"""Frame-sequence pins for the sets-of-sets family and the applications on it.

``test_backcompat.py`` pins bit totals and the cross-store suite checks
every sent table against the reference store; a hash or packing change made
on both at once passes both.  These pins are over the bytes: SHA-256 of every frame (sender, label,
charged bits, serialized payload) of one session per protocol through
:class:`SerializingTransport`, on the ``protocol_fixtures`` instances.
"""

import hashlib

import pytest

import repro
from repro.protocols.transports import SerializingTransport

from protocol_fixtures import protocol_instances

SEED = 2018


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
#: bound past the largest child, where Algorithm 2's ``T*`` is part of every
#: candidate plan (``test_cascade_plan.py`` reaches every plan shape);
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
#: checksum (the sets-of-sets child sketches keep 16 / 24).  The cascading
#: cases and the applications built on the cascade were re-recorded once
#: more when the cascade plan began taking its cheapest truncation.
#: ``cascading-t-star`` was re-recorded once more when T* became a fold
#: ladder sent from its start rung (18,304 -> 9,184 bits, still one round);
#: the other cascade cases' T* has regions under 16 cells, one rung, and
#: kept their bytes.
FRAME_PINS = {
    "cascading": (
        "6f61a6e4a3feb70c36cfee026448eefc16451506602d426015cf57abd4ceee19", 7664,
    ),
    "cascading-unknown": (
        "a8d4e7ccff0b490a2d97b7270cf754ac4e3358d9dfecd9113db52b403a22b7cf", 5512,
    ),
    "cascading-t-star": (
        "fbe8ed07ed4f89c1ec2973fa403279515514162a141203b220d049ae3b7a0e96", 9184,
    ),
    "iblt_of_iblts": (
        "43a4ab766cfb52d1d13d98600a113462ea957f6ae95d758b792f98809f9a8727", 49824,
    ),
    "multiround": (
        "c4979a0d6fb1de66a5198fd1858b25a92d94904769af8d026df1d40619c1ff00", 10654,
    ),
    "forest": (
        "0deb7dc8685bdb0f233c4dfb0ad1dd1725e19c90164a064446c623d43c6f2704", 15744,
    ),
    "degree_order": (
        "90a737e088107ed45854db64bdbffad19b09493a1219f66897443dbc9f8725b3", 1432,
    ),
    "degree_neighborhood": (
        "04f7316f20899a26767cc0c569d5d5fda10f8112bf57bbca0d45ee3ba36c74b9", 126416,
    ),
    "db": (
        "c15ca2248ac949544b94f23920819202776ddcf32fb07c3612ccca427a77734b", 848,
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


#: ``backend="numpy"`` is the spelling the end-to-end benchmark passes; it
#: names the one store and must not move a byte.
@pytest.mark.parametrize("backend", [None, "numpy"], ids=["default", "numpy"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_session_frames_match_the_recorded_pins(case, backend):
    frames, result = session_frames(case, backend)
    assert result.success, result.details
    assert (frames_digest(frames), result.total_bits) == FRAME_PINS[case]
