"""First-class protocol sessions: parties, messages, transports, registry.

This package turns every protocol in the library into an explicit two-party
session:

* :mod:`~repro.protocols.party` -- party state machines (generators yielding
  :class:`Send` / :class:`Receive`) and their outcomes;
* :mod:`~repro.protocols.wire` -- codecs that serialize every message payload
  to bytes and back, tied to the transcript's bit accounting;
* :mod:`~repro.protocols.transports` -- the transport seam: in-process
  serializing (the default, accounting-verified) and real sockets, both
  decoding with the receiver's codec;
* :mod:`~repro.protocols.session` -- the session loop driving two parties;
* :mod:`~repro.protocols.registry` -- the protocol registry and the uniform
  :func:`repro.reconcile` entry point;
* :mod:`~repro.protocols.parties` -- the party implementations of every
  protocol (set reconciliation, the four SSRK protocols, the graph and
  forest schemes, the applications).

See docs/protocols.md for the design and the migration from the removed
per-protocol ``reconcile_*`` functions.
"""

from repro.protocols.options import ReconcileOptions
from repro.protocols.party import END_OF_SESSION, PartyOutcome, Receive, Send
from repro.protocols.registry import (
    Protocol,
    get,
    names,
    reconcile,
    register_protocol,
    registry_table_markdown,
    specs,
)
from repro.protocols.session import Session, SessionResult, run_session
from repro.protocols.transports import (
    FRAME_CONTROL,
    FRAME_FIN,
    FRAME_MESSAGE,
    Frame,
    MessageMeasurement,
    SerializingTransport,
    SocketTransport,
    Transport,
    outcome_from_stop,
    pack_frame,
    read_frame,
    run_party,
)
from repro.protocols.wire import (
    NULL_CODEC,
    EstimatorCodec,
    NullCodec,
    PayloadCodec,
    TableCodec,
    TableWithHashCodec,
    WireAccountingError,
    WireError,
)

__all__ = [
    "ReconcileOptions",
    "END_OF_SESSION",
    "PartyOutcome",
    "Receive",
    "Send",
    "Protocol",
    "get",
    "names",
    "reconcile",
    "register_protocol",
    "registry_table_markdown",
    "specs",
    "Session",
    "SessionResult",
    "run_session",
    "FRAME_CONTROL",
    "FRAME_FIN",
    "FRAME_MESSAGE",
    "Frame",
    "MessageMeasurement",
    "SerializingTransport",
    "SocketTransport",
    "Transport",
    "outcome_from_stop",
    "pack_frame",
    "read_frame",
    "run_party",
    "NULL_CODEC",
    "EstimatorCodec",
    "NullCodec",
    "PayloadCodec",
    "TableCodec",
    "TableWithHashCodec",
    "WireAccountingError",
    "WireError",
]
