"""Service throughput: 64 concurrent asyncio client sessions vs serial loops.

The asyncio sync server exists to multiplex many clients whose sessions are
dominated by wire latency, so the comparison emulates a WAN client
population: every frame pays a simulated one-way delay
(``AsyncSocketTransport(latency=...)`` / the same knob on the blocking
``SocketTransport`` path) on top of the real localhost stack.

* **Serial baseline** -- the pre-service way to drive real-socket sessions:
  one blocking :func:`repro.protocols.run_party` loop per client, sessions
  one after another, each paying its own round-trip delays.
* **Concurrent** -- the same 64 sessions as asyncio tasks against one
  :class:`repro.service.SyncServer` event loop, where the delays overlap.

Every client recovers the server's set and the recovered data is asserted
identical between both paths (and to the data itself).  The acceptance bar
is a >= 4x throughput gain at 64 concurrent clients under 10 ms one-way
latency; a zero-latency row is also recorded for transparency (pure
localhost CPU is serialized either way, so its gain is modest).

Run under pytest (the 8-client cases are the CI smoke), or standalone::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py

which also rewrites ``BENCH_service.json`` at the repository root.
"""

from __future__ import annotations

import asyncio
import random
import socket
import sys
import threading
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:  # standalone execution
    sys.path.insert(0, str(_SRC))

from repro.bench.cli import DEFAULT_SEED, benchmark_config, benchmark_parser
from repro.bench.reporting import load_benchmark_record, write_benchmark_record
from repro.protocols import SocketTransport, pack_frame, read_frame, run_party
from repro.protocols.options import ReconcileOptions
from repro.protocols.registry import get
from repro.protocols.transports import FRAME_CONTROL
from repro.service import SyncServer, areconcile
from repro.service.hello import ACK_LABEL, HELLO_LABEL, Hello, PeerStats, parse_ack
from repro.service.hello import options_to_wire, placeholder_input

UNIVERSE = 1 << 20
SET_SIZE = 512
DIFFERENCES = 8
NUM_CLIENTS = 64
ONE_WAY_LATENCY_S = 0.010  # emulated WAN delay per frame, each direction
SPEEDUP_FLOOR = 4.0  # acceptance bar at NUM_CLIENTS under latency
PROTOCOL = "ibf"


def make_instances(seed: int) -> tuple[set[int], list[set[int]]]:
    """The server set and one perturbed copy per client."""
    rng = random.Random(seed)
    server_set = set(rng.sample(range(UNIVERSE), SET_SIZE))
    clients = []
    for _ in range(NUM_CLIENTS):
        mine = set(server_set)
        for element in rng.sample(sorted(server_set), DIFFERENCES // 2):
            mine.discard(element)
        for _ in range(DIFFERENCES - DIFFERENCES // 2):
            mine.add(rng.randrange(UNIVERSE))
        clients.append(mine)
    return server_set, clients


def client_options(seed: int, client_id: int) -> ReconcileOptions:
    return ReconcileOptions(
        seed=seed + client_id,
        universe_size=UNIVERSE,
        difference_bound=2 * DIFFERENCES,
    )


class ServerThread:
    """A SyncServer running on its own event-loop thread."""

    def __init__(self, server_set: set[int], latency: float) -> None:
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.port: int | None = None

        def body() -> None:
            async def serve() -> None:
                self._loop = asyncio.get_running_loop()
                self._stop = asyncio.Event()
                async with SyncServer({PROTOCOL: server_set}, latency=latency) as srv:
                    self.port = srv.port
                    self._ready.set()
                    await self._stop.wait()

            asyncio.run(serve())

        self._thread = threading.Thread(target=body, daemon=True)

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError("server did not start")
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)


def run_serial_client(
    port: int, mine: set[int], options: ReconcileOptions, server_set: set[int],
    latency: float,
) -> None:
    """One blocking run_party session (hello by hand, like pre-service code)."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    try:
        hello = Hello(PROTOCOL, "bob", options_to_wire(options),
                      PeerStats())
        if latency:
            time.sleep(latency)
        sock.sendall(pack_frame(FRAME_CONTROL, "bob", HELLO_LABEL, 0,
                                hello.to_json()))
        ack = read_frame(sock)
        assert ack.label == ACK_LABEL
        acked_options, server_stats = parse_ack(ack.payload)
        spec = get(PROTOCOL)
        placeholder = placeholder_input(spec.input_kind, server_stats)
        _, bob_party = spec.build(placeholder, mine, acked_options)
        transport = SocketTransport(sock, "bob")
        if latency:
            original_send = transport.send_message

            def delayed_send(send):
                time.sleep(latency)
                original_send(send)

            transport.send_message = delayed_send
        outcome, _ = run_party(bob_party, transport)
        assert outcome.success and outcome.recovered == server_set
    finally:
        sock.close()


def measure_serial(port, clients, server_set, seed, latency) -> float:
    start = time.perf_counter()
    for client_id, mine in enumerate(clients):
        run_serial_client(
            port, mine, client_options(seed, client_id), server_set, latency
        )
    return time.perf_counter() - start


def measure_concurrent(port, clients, server_set, seed, latency) -> float:
    async def one(client_id: int, mine: set[int]) -> None:
        result = await areconcile(
            "127.0.0.1", port, PROTOCOL, mine,
            options=client_options(seed, client_id), latency=latency,
        )
        assert result.success and result.recovered == server_set

    async def body() -> None:
        await asyncio.gather(
            *(one(client_id, mine) for client_id, mine in enumerate(clients))
        )

    start = time.perf_counter()
    asyncio.run(body())
    return time.perf_counter() - start


def compare(seed: int = DEFAULT_SEED, num_clients: int = NUM_CLIENTS) -> list[dict]:
    """Serial vs concurrent wall-clock, with and without emulated latency."""
    server_set, clients = make_instances(seed)
    clients = clients[:num_clients]
    rows = []
    for latency in (ONE_WAY_LATENCY_S, 0.0):
        with ServerThread(server_set, latency) as server:
            serial_s = measure_serial(
                server.port, clients, server_set, seed, latency
            )
        with ServerThread(server_set, latency) as server:
            concurrent_s = measure_concurrent(
                server.port, clients, server_set, seed, latency
            )
        row = {
            "clients": len(clients),
            "one_way_latency_ms": latency * 1000,
            "serial_s": round(serial_s, 4),
            "concurrent_s": round(concurrent_s, 4),
            "serial_sessions_per_s": round(len(clients) / serial_s, 2),
            "concurrent_sessions_per_s": round(len(clients) / concurrent_s, 2),
            "identical_recovered_sets": True,
        }
        if latency:
            row["speedup"] = round(serial_s / concurrent_s, 2)
        else:
            row["zero_latency_gain"] = round(serial_s / concurrent_s, 2)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# pytest entry points (the 8-client cases are the CI smoke test)
# ---------------------------------------------------------------------------

import pytest


@pytest.mark.timeout(300)
def test_smoke_concurrent_sessions(benchmark):
    from conftest import run_once

    server_set, clients = make_instances(DEFAULT_SEED)
    with ServerThread(server_set, 0.0) as server:
        elapsed = run_once(
            benchmark, measure_concurrent,
            server.port, clients[:8], server_set, DEFAULT_SEED, 0.0,
        )
    assert elapsed > 0


@pytest.mark.timeout(300)
def test_smoke_serial_baseline_agrees(benchmark):
    from conftest import run_once

    server_set, clients = make_instances(DEFAULT_SEED)
    with ServerThread(server_set, 0.0) as server:
        elapsed = run_once(
            benchmark, measure_serial,
            server.port, clients[:8], server_set, DEFAULT_SEED, 0.0,
        )
    assert elapsed > 0


@pytest.mark.timeout(300)
def test_concurrency_speedup_floor_under_latency(benchmark):
    """The tentpole acceptance check: >= 4x at 64 clients, 10 ms one-way."""
    from conftest import run_once

    rows = run_once(benchmark, compare)
    latency_row = next(row for row in rows if row["one_way_latency_ms"])
    assert latency_row["speedup"] >= SPEEDUP_FLOOR, rows


def main() -> None:
    args = benchmark_parser(
        "Concurrent sync-service throughput",
        Path(__file__).resolve().parent.parent / "BENCH_service.json",
    ).parse_args()
    rows = compare(seed=args.seed)
    for row in rows:
        gain = row.get("speedup", row.get("zero_latency_gain"))
        print(
            f"clients={row['clients']}  latency={row['one_way_latency_ms']:4.0f} ms  "
            f"serial={row['serial_s']:7.2f}s  concurrent={row['concurrent_s']:6.2f}s  "
            f"gain={gain:.1f}x"
        )
    latency_row = next(row for row in rows if row["one_way_latency_ms"])
    if latency_row["speedup"] < SPEEDUP_FLOOR:
        sys.exit(
            f"throughput speedup {latency_row['speedup']}x below the "
            f"{SPEEDUP_FLOOR}x floor"
        )
    config = benchmark_config(
        args.seed,
        clients=NUM_CLIENTS,
        protocol=PROTOCOL,
        set_size=SET_SIZE,
        differences=DIFFERENCES,
        one_way_latency_s=ONE_WAY_LATENCY_S,
    )
    if args.profile:
        config["profile"] = {
            f"latency{row['one_way_latency_ms']:g}ms_{phase}_s": row[f"{phase}_s"]
            for row in rows
            for phase in ("serial", "concurrent")
        }
    # The record is shared with bench_fleet_saturation.py: keep its fleet
    # rows (the ones carrying a "workers" key) and its "fleet" block intact.
    try:
        existing = load_benchmark_record(args.output)
    except FileNotFoundError:
        existing = {}
    fleet_rows = [row for row in existing.get("results", []) if "workers" in row]
    extra = {"fleet": existing["fleet"]} if "fleet" in existing else {}
    write_benchmark_record(
        args.output,
        benchmark="bench_service_throughput",
        description=(
            "64 concurrent asyncio client sessions against one SyncServer vs "
            "serial blocking run_party loops, under emulated 10 ms one-way "
            "WAN latency (zero-latency row recorded for transparency); "
            "identical recovered sets asserted on every session"
        ),
        config=config,
        speedup_floor=SPEEDUP_FLOOR,
        **extra,
        results=rows + fleet_rows,
    )
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
