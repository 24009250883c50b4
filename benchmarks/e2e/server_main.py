"""The server child of the ``serve-*`` workloads.

Started by ``workloads.ServerChild`` with ``PYTHONPATH`` pointing at ``src``::

    python server_main.py --root DIR --dataset FILE

Hosts the set in ``FILE`` (a JSON list) for ``ibf`` behind a durable
``SketchStore(root=DIR)`` with a 1 s anti-entropy sweep, prints ``PORT <n>``
once it listens, and serves until SIGTERM (graceful drain) or SIGKILL.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
from pathlib import Path

from repro.service import SyncServer
from repro.store import SketchStore

ANTI_ENTROPY_INTERVAL_S = 1.0


async def serve(root: str, dataset: set) -> None:
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    async with SyncServer(
        {"ibf": dataset},
        store=SketchStore(root=root),
        anti_entropy_interval=ANTI_ENTROPY_INTERVAL_S,
    ) as server:
        print(f"PORT {server.port}", flush=True)
        await stop.wait()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--dataset", required=True)
    args = parser.parse_args()
    asyncio.run(serve(args.root, set(json.loads(Path(args.dataset).read_text()))))


if __name__ == "__main__":
    main()
