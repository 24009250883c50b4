"""Spans recorded from outside the program, at the transport seam.

``TracingTransport`` is passed to ``repro.reconcile(transport=...)``.  It does
what ``SerializingTransport`` does -- every payload goes through its codec to
bytes and back -- but performs and times ``codec.encode`` / ``codec.decode``
itself, and attributes the gaps between seam events to the party that ran in
them: the gap before a send is the sender's step, the gap after a receive is
the receiver's.  (The gap between a send and the matching receive holds the
sender's tail and the receiver's prelude; it is charged to the sender.)

A span is ``(name, start, end, parent, op)``; an op's spans share its id and
have the op span as their parent.  Spans stay in memory and are written out
once, when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, TextIO

from repro import protocols

from calibration import percentile


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: str | None
    op: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """The in-memory span list of one traced run, plus the seam's counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.messages = 0
        self.wire_bytes = 0
        self.charged_bits = 0

    def add(self, name: str, start: float, end: float, parent: str | None, op: int) -> None:
        self.spans.append(Span(name, start, end, parent, op))

    def seconds(self, name: str) -> float:
        return sum(span.seconds for span in self.spans if span.name == name)

    def write(self, handle: TextIO, workload: str) -> None:
        for span in self.spans:
            handle.write(json.dumps({"workload": workload, **span.__dict__}) + "\n")


class TracingTransport(protocols.Transport):
    """Serializing transport that records a span per seam event and gap."""

    name = "tracing"

    def __init__(self, recorder: SpanRecorder, op: int, start: float) -> None:
        self.recorder = recorder
        self.op = op
        self._mark = start
        self._running = ""

    def _gap(self, party: str, now: float) -> None:
        self.recorder.add(f"{party}.step", self._mark, now, "op", self.op)

    def on_send(self, sender: str, send: protocols.Send) -> tuple[str, bytes]:
        start = time.perf_counter()
        self._gap(sender, start)
        data = send.codec.encode(send.payload)
        end = time.perf_counter()
        self.recorder.add("codec.encode", start, end, "op", self.op)
        self.recorder.messages += 1
        self.recorder.wire_bytes += len(data)
        self.recorder.charged_bits += send.size_bits
        self._mark = end
        self._running = sender
        return sender, data

    def on_receive(
        self, inflight: tuple[str, bytes], receive: protocols.Receive, send: protocols.Send
    ) -> Any:
        sender, data = inflight
        start = time.perf_counter()
        self._gap(sender, start)
        codec = receive.codec if receive.codec is not None else send.codec
        payload = codec.decode(data)
        end = time.perf_counter()
        self.recorder.add("codec.decode", start, end, "op", self.op)
        self._mark = end
        self._running = "bob" if sender == "alice" else "alice"
        return payload

    def finish(self, start: float, end: float) -> None:
        """Close the op: the last gap belongs to whoever ran after the last
        seam event, and the op span itself is recorded."""
        if self._running:
            self._gap(self._running, end)
        self.recorder.add("op", start, end, None, self.op)


def session_ledger(
    workload: Any, seconds: float, min_pairs: int, recorder: SpanRecorder
) -> dict[str, tuple[float, str]]:
    """Run the workload's reference session alternately untraced and traced.

    Both variants run interleaved in one process, so ``trace.overhead_ratio``
    compares like with like however noisy the host is.
    """
    plain: list[float] = []
    traced: list[float] = []
    build: list[float] = []
    spec = protocols.get(workload.protocol)
    deadline = time.perf_counter() + seconds
    k = 0
    while k < min_pairs or time.perf_counter() < deadline:
        alice, bob, options = workload.session_args(k, 0)
        start = time.perf_counter()
        spec.build(alice, bob, options)
        build.append(time.perf_counter() - start)

        start = time.perf_counter()
        workload.session(k, 0, protocols.SerializingTransport())
        plain.append(time.perf_counter() - start)

        start = time.perf_counter()
        transport = TracingTransport(recorder, k, start)
        workload.session(k, 0, transport)
        end = time.perf_counter()
        transport.finish(start, end)
        traced.append(end - start)
        k += 1
    ops = len(traced)
    in_spans = sum(span.seconds for span in recorder.spans if span.parent == "op")

    def per_op_ms(name: str) -> tuple[float, str]:
        return recorder.seconds(name) / ops * 1e3, "ms"

    return {
        "protocols.build_ms": (percentile(build, 0.1) * 1e3, "ms"),
        "protocols.alice_step_ms": per_op_ms("alice.step"),
        "protocols.bob_step_ms": per_op_ms("bob.step"),
        "protocols.encode_ms": per_op_ms("codec.encode"),
        "protocols.decode_ms": per_op_ms("codec.decode"),
        "protocols.messages_per_op": (recorder.messages / ops, "count"),
        "protocols.wire_overhead_ratio": (
            recorder.wire_bytes * 8 / recorder.charged_bits, "ratio"
        ),
        "trace.overhead_ratio": (percentile(traced, 0.1) / percentile(plain, 0.1), "ratio"),
        "trace.coverage": (in_spans / recorder.seconds("op"), "ratio"),
    }
