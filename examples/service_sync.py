#!/usr/bin/env python
"""One asyncio sync server, many concurrent clients, three protocols.

The sibling of ``socket_sync.py`` at service scale: a single
:class:`repro.service.SyncServer` hosts datasets for the ``ibf``, ``cpi``
and ``multiround`` protocols on one event loop, and twelve clients connect
*concurrently* -- four per protocol, each holding its own perturbed copy of
the server data.  Every client recovers the server's dataset, and each
result is checked against the same protocol run as an in-process session
(identical recovered data and identical transcript bits: the socket changes
nothing but where the bytes travel).

The finale fetches the server's ``stats`` report, which shows the
sessions it served.

Run with::

    python examples/service_sync.py
"""

import asyncio
import random

import repro
from repro.core.setsofsets.types import SetOfSets
from repro.protocols.options import ReconcileOptions
from repro.service import SyncServer, afetch_stats, areconcile

SEED = 2018
UNIVERSE = 1 << 20
SET_SIZE = 1500
NUM_CHILDREN = 120
CLIENTS_PER_PROTOCOL = 4


def make_datasets(rng: random.Random):
    """The server's data: one set for the set protocols, one set-of-sets."""
    server_set = set(rng.sample(range(UNIVERSE), SET_SIZE))
    children = [
        frozenset(rng.sample(range(UNIVERSE), 8)) for _ in range(NUM_CHILDREN)
    ]
    server_sos = SetOfSets(children)
    return {
        "ibf": server_set,
        "cpi": server_set,
        "multiround": server_sos,
    }


def perturb(dataset, rng: random.Random):
    """A client's copy: a few deletions and insertions (or touched children)."""
    if isinstance(dataset, SetOfSets):
        children = [set(child) for child in sorted(dataset.children, key=sorted)]
        for index in rng.sample(range(len(children)), 3):
            children[index].add(rng.randrange(UNIVERSE))
        return SetOfSets(children)
    mutated = set(dataset)
    for element in rng.sample(sorted(dataset), 4):
        mutated.discard(element)
    for _ in range(4):
        mutated.add(rng.randrange(UNIVERSE))
    return mutated


def client_options(client_id: int) -> ReconcileOptions:
    return ReconcileOptions(
        seed=SEED + client_id, universe_size=UNIVERSE, difference_bound=16
    )


async def run_client(port, protocol, client_id, datasets):
    """One concurrent client session plus its in-process reference run."""
    mine = perturb(datasets[protocol], random.Random(SEED + client_id))
    options = client_options(client_id)
    result = await areconcile("127.0.0.1", port, protocol, mine, options=options)
    reference = repro.reconcile(
        datasets[protocol], mine, protocol=protocol, options=options
    )
    assert result.success, f"client {client_id} ({protocol}) failed"
    assert result.recovered == datasets[protocol], f"client {client_id} wrong data"
    assert result.recovered == reference.recovered, "network != in-process recovery"
    assert result.total_bits == reference.total_bits, "transport changed accounting"
    return protocol, client_id, result.total_bits


async def main() -> None:
    datasets = make_datasets(random.Random(SEED))
    async with SyncServer(datasets) as server:
        port = server.port
        print(f"[server] listening on 127.0.0.1:{port}, "
              f"serving {sorted(datasets)}")

        tasks = [
            run_client(port, protocol, client_id, datasets)
            for client_id, protocol in enumerate(
                protocol
                for protocol in datasets
                for _ in range(CLIENTS_PER_PROTOCOL)
            )
        ]
        finished = await asyncio.gather(*tasks)
        print(f"[clients] {len(finished)} concurrent sessions reconciled, "
              "all byte-identical to in-process runs:")
        for protocol, client_id, bits in finished:
            print(f"[clients]   #{client_id:<2} {protocol:<11} {bits:>7} bits")

        stats = await afetch_stats("127.0.0.1", port)
        print(f"[stats] served {stats['sessions_served']} sessions, "
              f"{stats['rounds_total']} rounds, "
              f"{stats['bits_charged_total']} bits charged, "
              f"{stats['wire_bytes_sent'] + stats['wire_bytes_received']} "
              "raw bytes on the wire")
        assert stats["sessions_served"] == len(finished)
        assert stats["sessions_failed"] == 0


if __name__ == "__main__":
    asyncio.run(main())
