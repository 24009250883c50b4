"""The session loop: drives two party generators over a transport.

A :class:`Session` owns the scheduling of one two-party protocol execution:
it advances each party until it blocks on a :class:`~repro.protocols.party.Receive`
with no pending message, routes every :class:`~repro.protocols.party.Send`
through the transport (recording it in the shared transcript), and delivers
:data:`~repro.protocols.party.END_OF_SESSION` to a party still waiting after
its peer finished.  The result combines both parties' outcomes into the
library's standard :class:`~repro.comm.result.ReconciliationResult`.

The uniform entry point :func:`repro.reconcile` builds a registered
protocol's parties and runs them through this loop (by default over a
:class:`~repro.protocols.transports.SerializingTransport`, so the receiver
decodes exactly what the wire would carry).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.comm import ReconciliationResult, Transcript
from repro.errors import ReconciliationError
from repro.protocols.party import (
    END_OF_SESSION,
    PartyGenerator,
    PartyOutcome,
    Receive,
    Send,
)
from repro.protocols.transports import SerializingTransport, Transport, outcome_from_stop


@dataclass
class SessionResult:
    """Both parties' outcomes plus the shared transcript."""

    alice: PartyOutcome
    bob: PartyOutcome
    transcript: Transcript

    def round_summary(self) -> list[dict[str, Any]]:
        """Per-round bits breakdown (``Transcript.round_summary``) for reports."""
        return self.transcript.round_summary()

    def to_reconciliation_result(self) -> ReconciliationResult:
        """Combine both parties' outcomes into one result.

        Success requires both parties to succeed; ``recovered`` comes from
        the recovering party (bob); ``details`` are merged with bob's entries
        winning on key collisions; ``attempts`` is the larger of the two
        parties' counts (they agree in every shipped protocol).
        """
        success = self.alice.success and self.bob.success
        return ReconciliationResult(
            success,
            self.bob.recovered if success else None,
            self.transcript,
            attempts=max(self.alice.attempts, self.bob.attempts),
            details={**self.alice.details, **self.bob.details},
        )


class Session:
    """One protocol execution between an ``alice`` and a ``bob`` party.

    Parameters
    ----------
    alice, bob:
        Party generators (see :mod:`repro.protocols.party`).  By library
        convention ``alice`` is the party whose data is recovered and ``bob``
        the recovering party; either may send first.
    transport:
        A :class:`~repro.protocols.transports.Transport`; defaults to a
        fresh :class:`~repro.protocols.transports.SerializingTransport`.
    transcript:
        Optional existing transcript to append to (protocols running as
        subroutines of a larger one reuse the caller's).
    """

    _ROLES = ("alice", "bob")

    def __init__(
        self,
        alice: PartyGenerator,
        bob: PartyGenerator,
        transport: Transport | None = None,
        transcript: Transcript | None = None,
    ) -> None:
        self._parties = {"alice": alice, "bob": bob}
        self.transport = transport if transport is not None else SerializingTransport()
        self.transcript = transcript if transcript is not None else Transcript()

    def run(self) -> SessionResult:
        """Drive both parties to completion and return the combined result."""
        inbox: dict[str, deque] = {role: deque() for role in self._ROLES}
        outcomes: dict[str, PartyOutcome] = {}
        # Per-party scheduler state: ("new", None) before the first advance,
        # ("ready", value) when the generator can be resumed with ``value``,
        # ("blocked", receive_command) while waiting for a message.
        state: dict[str, tuple[str, Any]] = {role: ("new", None) for role in self._ROLES}

        def peer(role: str) -> str:
            return "bob" if role == "alice" else "alice"

        while len(outcomes) < len(self._ROLES):
            progressed = False
            for role in self._ROLES:
                if role in outcomes:
                    continue
                while role not in outcomes:
                    kind, value = state[role]
                    if kind == "blocked":
                        if inbox[role]:
                            inflight, send = inbox[role].popleft()
                            payload = self.transport.on_receive(inflight, value, send)
                            state[role] = ("ready", payload)
                            continue
                        if peer(role) in outcomes:
                            state[role] = ("ready", END_OF_SESSION)
                            continue
                        break  # genuinely waiting; let the peer run
                    try:
                        command = self._parties[role].send(
                            None if kind == "new" else value
                        )
                    except StopIteration as stop:
                        outcomes[role] = outcome_from_stop(
                            stop.value, who=f"party {role!r}"
                        )
                        progressed = True
                        break
                    progressed = True
                    if isinstance(command, Send):
                        inflight = self.transport.on_send(role, command)
                        self.transcript.send(
                            role, command.label, command.size_bits, command.payload
                        )
                        inbox[peer(role)].append((inflight, command))
                        state[role] = ("ready", None)
                    elif isinstance(command, Receive):
                        state[role] = ("blocked", command)
                    else:
                        raise ReconciliationError(
                            f"party {role!r} yielded {command!r}; expected Send or Receive"
                        )
            if not progressed:
                raise ReconciliationError(
                    "protocol deadlock: both parties are waiting for a message"
                )
        return SessionResult(outcomes["alice"], outcomes["bob"], self.transcript)


def run_session(
    alice: PartyGenerator,
    bob: PartyGenerator,
    transport: Transport | None = None,
    transcript: Transcript | None = None,
) -> ReconciliationResult:
    """Run a session and combine the outcomes (``Session(...).run()`` as one call)."""
    session = Session(alice, bob, transport=transport, transcript=transcript)
    return session.run().to_reconciliation_result()
