"""Message transcripts with bit and round accounting.

A :class:`Transcript` is created per protocol execution.  Each call to
:meth:`Transcript.send` records one message; the round counter increases
whenever the direction of communication flips (the paper's convention: a one
round protocol is a single message from Alice to Bob, the four round protocol
of Theorem 3.10 alternates Bob/Alice/Bob/Alice... four direction switches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ParameterError


@dataclass(frozen=True)
class Message:
    """One transmitted message.

    Attributes
    ----------
    sender:
        Conventionally ``"alice"`` or ``"bob"``.
    round_index:
        1-based round the message belongs to.
    label:
        Human-readable description of the payload (shown in benchmark
        breakdowns, e.g. ``"parent IBLT"`` or ``"difference estimators"``).
    size_bits:
        Serialized size charged for the message.
    payload:
        The payload object: in an in-process session the sender's object as
        sent (the receiving party decodes its own from the wire bytes); on
        a socket endpoint that received the message, the decoded one.
    """

    sender: str
    round_index: int
    label: str
    size_bits: int
    payload: Any = None


@dataclass
class Transcript:
    """Accumulates the messages exchanged during one protocol execution."""

    messages: list[Message] = field(default_factory=list)

    def send(self, sender: str, label: str, size_bits: int, payload: Any = None) -> Message:
        """Record a message from ``sender`` and return it."""
        if size_bits < 0:
            raise ParameterError("size_bits must be non-negative")
        if not sender:
            raise ParameterError("sender must be a non-empty string")
        if not label:
            raise ParameterError("label must be a non-empty string")
        if self.messages and self.messages[-1].sender == sender:
            round_index = self.messages[-1].round_index
        else:
            round_index = (self.messages[-1].round_index + 1) if self.messages else 1
        message = Message(sender, round_index, label, size_bits, payload)
        self.messages.append(message)
        return message

    @property
    def total_bits(self) -> int:
        """Total bits across every message."""
        return sum(message.size_bits for message in self.messages)

    @property
    def num_rounds(self) -> int:
        """Number of rounds used (0 if nothing was sent)."""
        return self.messages[-1].round_index if self.messages else 0

    def bits_by_sender(self) -> dict[str, int]:
        """Total bits sent per party."""
        totals: dict[str, int] = {}
        for message in self.messages:
            totals[message.sender] = totals.get(message.sender, 0) + message.size_bits
        return totals

    def bits_by_label(self) -> dict[str, int]:
        """Total bits per payload label (for benchmark breakdowns)."""
        totals: dict[str, int] = {}
        for message in self.messages:
            totals[message.label] = totals.get(message.label, 0) + message.size_bits
        return totals

    def by_sender(self) -> dict[str, list[Message]]:
        """The messages grouped by sender, in transmission order."""
        grouped: dict[str, list[Message]] = {}
        for message in self.messages:
            grouped.setdefault(message.sender, []).append(message)
        return grouped

    def bits_by_round(self) -> dict[int, int]:
        """Total bits per round (the per-round breakdown of ``total_bits``)."""
        totals: dict[int, int] = {}
        for message in self.messages:
            totals[message.round_index] = (
                totals.get(message.round_index, 0) + message.size_bits
            )
        return totals

    def round_summary(self) -> list[dict[str, object]]:
        """One row per round -- ``{round, sender, bits, messages}`` -- ready for
        :func:`repro.bench.reporting.format_table` and the session layer's
        reporting hooks."""
        rows: list[dict[str, object]] = []
        for message in self.messages:
            if rows and rows[-1]["round"] == message.round_index:
                rows[-1]["bits"] = int(rows[-1]["bits"]) + message.size_bits
                rows[-1]["messages"] = int(rows[-1]["messages"]) + 1
            else:
                rows.append(
                    {
                        "round": message.round_index,
                        "sender": message.sender,
                        "bits": message.size_bits,
                        "messages": 1,
                    }
                )
        return rows

    def extend(self, other: "Transcript") -> None:
        """Append another transcript's messages (re-numbering rounds)."""
        for message in other.messages:
            self.send(message.sender, message.label, message.size_bits, message.payload)

    def __len__(self) -> int:
        return len(self.messages)
