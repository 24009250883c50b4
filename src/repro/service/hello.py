"""Session negotiation: the hello/ack handshake the sync service speaks.

Before a protocol session starts, the client sends one ``FRAME_CONTROL``
frame labeled ``"hello"`` whose JSON payload names the registered protocol,
the role the client wants to play, the non-default fields of
:class:`~repro.protocols.options.ReconcileOptions`, and -- for the
set-of-sets protocols -- the client input's *public size statistics*
(``num_children``, ``total_elements``, ``max_child_size``).  Those
statistics are exactly the quantities the paper's protocol statements assume
both parties know; exchanging them in the hello lets both endpoints build
identical shared contexts even though each only holds its own data.

The server replies with a ``"hello-ack"`` control frame: either
``{"ok": true, "options": ..., "stats": ...}`` echoing the canonicalized
options plus the *server* input's public statistics, or ``{"ok": false,
"error": ...}``, which the client surfaces as a
:class:`~repro.errors.ServiceError`.

A hello may instead carry ``{"stats_request": true}`` to request the
service metrics report rather than a session.  :meth:`Hello.from_json`
checks the type of every top-level field a peer sends and refuses unknown
ones, so a malformed hello is answered with a refusing ack;
:func:`options_from_wire` checks the type and range of every option value.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Callable, TypeGuard

from repro.errors import ParameterError, ServiceError, SessionRejectedError
from repro.protocols.options import ReconcileOptions
from repro.service.admission import ADMISSION_CODES

#: Control-frame labels of the handshake.
HELLO_LABEL = "hello"
ACK_LABEL = "hello-ack"
STATS_LABEL = "stats"
#: Control-frame labels of the mutation path (sketch-store servers).
MUTATE_LABEL = "mutate"
MUTATE_ACK_LABEL = "mutate-ack"

#: Handshake version; bumped on incompatible changes to the JSON shapes.
SERVICE_VERSION = 1

#: Input kinds the service can host.  The party builders for these kinds
#: only consume the peer's *public statistics* (exchanged in the hello), so
#: a placeholder peer input is safe; graph/forest/table/document protocols
#: derive shared context from both inputs in ways a hello cannot carry yet.
#: ``"kv"`` rides the same rule: the kv party bodies are lazy generators
#: that only ever touch the local role's replica, so the remote side's
#: stand-in is never dereferenced at all.
SERVED_INPUT_KINDS = ("set", "set_of_sets", "kv")

#: Every top-level key a hello may carry.
_HELLO_FIELDS = {"version", "stats_request", "protocol", "role", "options", "stats"}


def _is_int(value: Any) -> TypeGuard[int]:
    """A JSON integer (``bool`` is an ``int`` subclass, so it is excluded
    explicitly)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value: Any) -> bool:
    """A JSON non-negative integer."""
    return _is_int(value) and value >= 0


#: The largest bound a peer may send: the width of a frame's bound header.
MAX_WIRE_BOUND = 2**32 - 1


def _bound(value: Any) -> bool:
    """``None`` or an integer in ``[0, MAX_WIRE_BOUND]``."""
    return value is None or (_is_count(value) and value <= MAX_WIRE_BOUND)


def _tier_name(value: Any) -> bool:
    """Any value: :class:`ReconcileOptions` refuses a tier name it does not
    know, for local and peer callers alike."""
    return True


#: What every option a peer may send must be, one entry per
#: :class:`ReconcileOptions` field (any other name is refused as unknown).
#: Counts and bounds are integers in ``[0, MAX_WIRE_BOUND]`` (never bools),
#: ``universe_size`` is a positive integer; ``backend`` and ``field_kernel``
#: are checked by :class:`ReconcileOptions` itself.  Sizing is no option, so
#: a hello that names a hash count or a slack factor is refused as unknown.
_OPTION_CHECKS: dict[str, Callable[[Any], bool]] = {
    "seed": _is_int,
    "difference_bound": _bound,
    "universe_size": lambda value: value is None or (_is_int(value) and value > 0),
    "max_child_size": _bound,
    "differing_children_bound": _bound,
    "backend": _tier_name,
    "field_kernel": _tier_name,
    "num_top": _bound,
    "max_degree": _bound,
    "max_depth": _bound,
}


def options_to_wire(options: ReconcileOptions) -> dict[str, Any]:
    """The JSON-safe dict form of ``options`` (defaults omitted)."""
    defaults = ReconcileOptions()
    wire = {}
    for field in dataclasses.fields(options):
        value = getattr(options, field.name)
        if value != getattr(defaults, field.name):
            wire[field.name] = value
    return wire


def options_from_wire(wire: dict[str, Any]) -> ReconcileOptions:
    """Rebuild a :class:`ReconcileOptions` from its wire dict.

    A peer chooses every value, so each is checked against
    :data:`_OPTION_CHECKS` before it reaches a party builder; a bad one
    raises :class:`ServiceError` (the refusing ack), never a later error.
    """
    unknown = set(wire) - _OPTION_CHECKS.keys()
    if unknown:
        raise ServiceError(f"unknown option(s) in hello: {sorted(unknown)}")
    for name, value in wire.items():
        if not _OPTION_CHECKS[name](value):
            raise ServiceError(f"invalid option in hello: {name}={value!r}")
    try:
        return ReconcileOptions().merged(**wire)
    except ParameterError as exc:  # e.g. a negative bound or an unknown tier
        raise ServiceError(f"invalid option in hello: {exc}") from exc


@dataclass(frozen=True)
class PeerStats:
    """Public size statistics of one set-of-sets input.

    Stands in for the peer's input when building parties: the set-of-sets
    context builders only read these three attributes off the inputs
    (``context_for`` and ``_derived_max_child_size``), so a
    :class:`PeerStats` carrying the peer's real statistics yields the exact
    shared context an in-process session over both real inputs would build.
    """

    num_children: int = 0
    total_elements: int = 0
    max_child_size: int = 0

    def to_wire(self) -> dict[str, int]:
        return dataclasses.asdict(self)

    @classmethod
    def from_wire(cls, wire: Any) -> "PeerStats":
        """Parse peer-sent statistics: absent means zeros, anything else must
        be an object of exactly the three fields, each a non-negative int."""
        if wire is None:
            return cls()
        names = [field.name for field in dataclasses.fields(cls)]
        if (
            not isinstance(wire, dict)
            or set(wire) != set(names)
            or not all(_is_count(wire[name]) for name in names)
        ):
            raise ServiceError(f"malformed peer stats: {wire!r}")
        return cls(*(wire[name] for name in names))

    @classmethod
    def of(cls, data: Any) -> "PeerStats":
        """The statistics of a real input (zeros for plain sets)."""
        if hasattr(data, "num_children"):
            return cls(data.num_children, data.total_elements, data.max_child_size)
        return cls()


@dataclass(frozen=True)
class Hello:
    """The client's opening control payload."""

    protocol: str | None
    role: str = "bob"
    options: dict[str, Any] = dataclasses.field(default_factory=dict)
    stats: PeerStats = PeerStats()
    want_stats: bool = False

    def to_json(self) -> bytes:
        body: dict[str, Any] = {"version": SERVICE_VERSION}
        if self.want_stats:
            body["stats_request"] = True
        else:
            body.update(
                protocol=self.protocol,
                role=self.role,
                options=self.options,
                stats=self.stats.to_wire(),
            )
        return json.dumps(body).encode()

    @classmethod
    def from_json(cls, payload: bytes) -> "Hello":
        try:
            body = json.loads(payload.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"malformed hello payload: {exc}") from exc
        if not isinstance(body, dict):
            raise ServiceError(f"hello must be a JSON object, got {body!r}")
        unknown = set(body) - _HELLO_FIELDS
        if unknown:
            raise ServiceError(f"unknown field(s) in hello: {sorted(unknown)}")
        if body.get("version") != SERVICE_VERSION:
            raise ServiceError(
                f"unsupported service version {body.get('version')!r} "
                f"(this side speaks {SERVICE_VERSION})"
            )
        if body.get("stats_request"):
            return cls(None, want_stats=True)
        protocol = body.get("protocol")
        if not isinstance(protocol, str):
            raise ServiceError(f"hello protocol must be a string, got {protocol!r}")
        role = body.get("role", "bob")
        if role not in ("alice", "bob"):
            raise ServiceError(f"hello role must be 'alice' or 'bob', got {role!r}")
        options = body.get("options", {})
        if not isinstance(options, dict):
            raise ServiceError(f"hello options must be an object, got {options!r}")
        return cls(protocol, role, options, PeerStats.from_wire(body.get("stats")))


def placeholder_input(input_kind: str, stats: PeerStats) -> Any:
    """The stand-in for the peer's input when building a party locally.

    Set protocols derive shared context from options alone, so an empty set
    suffices; set-of-sets protocols read the public statistics exchanged in
    the handshake off the placeholder.
    """
    if input_kind == "set":
        return frozenset()
    if input_kind == "set_of_sets":
        return stats
    if input_kind == "kv":
        # Party generators are lazy and only the locally-driven role runs,
        # so the peer-side stand-in is never dereferenced.
        return None
    raise ServiceError(
        f"input kind {input_kind!r} is not served; "
        f"supported kinds: {', '.join(SERVED_INPUT_KINDS)}"
    )


def ack_payload(
    options: ReconcileOptions, stats: PeerStats
) -> bytes:
    """A successful ``hello-ack`` payload."""
    return json.dumps(
        {
            "ok": True,
            "version": SERVICE_VERSION,
            "options": options_to_wire(options),
            "stats": stats.to_wire(),
        }
    ).encode()


def error_payload(message: str, code: str | None = None) -> bytes:
    """A refusing ``hello-ack`` payload.

    ``code`` is the optional machine-readable rejection reason (the
    admission codes of :mod:`repro.service.admission`); clients map coded
    refusals onto :class:`~repro.errors.SessionRejectedError` and uncoded
    ones onto plain :class:`~repro.errors.ServiceError`.
    """
    body: dict[str, Any] = {"ok": False, "version": SERVICE_VERSION, "error": message}
    if code is not None:
        body["code"] = code
    return json.dumps(body).encode()


def mutate_payload(
    dataset: str, insert: "list[int] | tuple[int, ...]", delete: "list[int] | tuple[int, ...]"
) -> bytes:
    """The client's ``mutate`` control payload (apply a delta server-side)."""
    return json.dumps(
        {
            "version": SERVICE_VERSION,
            "dataset": dataset,
            "insert": sorted(int(key) for key in insert),
            "delete": sorted(int(key) for key in delete),
        }
    ).encode()


def parse_mutate(payload: bytes) -> tuple[str, list[int], list[int]]:
    """Parse and validate a ``mutate`` payload into ``(dataset, ins, dels)``."""
    try:
        body = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"malformed mutate payload: {exc}") from exc
    if not isinstance(body, dict):
        raise ServiceError(f"mutate must be a JSON object, got {body!r}")
    if body.get("version") != SERVICE_VERSION:
        raise ServiceError(
            f"unsupported service version {body.get('version')!r} "
            f"(this side speaks {SERVICE_VERSION})"
        )
    dataset = body.get("dataset")
    if not isinstance(dataset, str) or not dataset:
        raise ServiceError("mutate names no dataset")

    def keys(name: str) -> list[int]:
        raw = body.get(name, [])
        if not isinstance(raw, list):
            raise ServiceError(f"mutate {name!r} must be a list of keys")
        parsed = []
        for key in raw:
            if not _is_count(key):
                raise ServiceError(
                    f"mutate {name!r} keys must be non-negative integers, got {key!r}"
                )
            parsed.append(key)
        return parsed

    insert, delete = keys("insert"), keys("delete")
    overlap = set(insert) & set(delete)
    if overlap:
        raise ServiceError(
            f"mutate inserts and deletes overlap on {len(overlap)} key(s)"
        )
    return dataset, insert, delete


def mutate_ack_payload(inserted: int, deleted: int, size: int) -> bytes:
    """A successful ``mutate-ack``: the *effective* delta plus the new size."""
    return json.dumps(
        {
            "ok": True,
            "version": SERVICE_VERSION,
            "inserted": inserted,
            "deleted": deleted,
            "size": size,
        }
    ).encode()


def parse_mutate_ack(payload: bytes) -> dict[str, int]:
    """Parse a ``mutate-ack``; raises :class:`ServiceError` on refusal."""
    try:
        body = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"malformed mutate-ack payload: {exc}") from exc
    if not body.get("ok"):
        raise ServiceError(
            f"server refused the mutation: {body.get('error', 'unknown error')}"
        )
    return {
        "inserted": int(body.get("inserted", 0)),
        "deleted": int(body.get("deleted", 0)),
        "size": int(body.get("size", 0)),
    }


def parse_ack(payload: bytes) -> tuple[ReconcileOptions, PeerStats]:
    """Parse a ``hello-ack``; raises on refusal.

    A refusal carrying an admission code raises the typed (retryable)
    :class:`~repro.errors.SessionRejectedError`; any other refusal raises
    a plain :class:`ServiceError`.
    """
    try:
        body = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"malformed hello-ack payload: {exc}") from exc
    if not body.get("ok"):
        message = body.get("error", "unknown error")
        code = body.get("code")
        if code in ADMISSION_CODES:
            raise SessionRejectedError(
                f"server shed the session ({code}): {message}", code
            )
        raise ServiceError(f"server refused the session: {message}")
    return (
        options_from_wire(body.get("options") or {}),
        PeerStats.from_wire(body.get("stats")),
    )
