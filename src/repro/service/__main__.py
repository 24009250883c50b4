"""CLI entry point: ``python -m repro.service``.

Three subcommands built around a deterministic demo workload (a seeded
random set, so a server and its clients can agree on data without sharing
files):

* ``serve`` -- start a :class:`~repro.service.server.SyncServer` hosting the
  demo set for the set protocols (``ibf``, ``cpi``) and a demo set-of-sets
  for the structured protocols, then run until interrupted;
* ``sync`` -- connect as a client whose copy of the demo set has a few
  seeded mutations, reconcile over a named protocol, and print the result;
* ``mutate`` -- push a delta into a server-side dataset (requires the
  server to run with ``--store``, so its live sketches absorb the delta);
* ``stats`` -- fetch the server's metrics report and render it as a
  human-readable table (``--json`` for the raw dict).

Example::

    python -m repro.service serve --port 8642 --store /tmp/sketches &
    python -m repro.service sync --port 8642 --protocol ibf --mutations 12
    python -m repro.service mutate --port 8642 --insert 17 23 --delete 4
    python -m repro.service stats --port 8642
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys

from repro.core.setsofsets.types import SetOfSets
from repro.errors import ParameterError, ReproError
from repro.hashing import derive_seed
from repro.protocols.options import ReconcileOptions
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.client import amutate, areconcile, afetch_stats
from repro.service.fleet import SyncFleet, install_signal_drain, remove_signal_drain
from repro.service.metrics import format_stats_report
from repro.service.server import SyncServer
from repro.store import SketchStore

DEFAULT_SEED = 2018
DEFAULT_UNIVERSE = 1 << 20
DEFAULT_SIZE = 4096


def demo_set(universe: int, size: int, seed: int) -> set[int]:
    """The deterministic demo dataset both sides derive from the seed."""
    rng = random.Random(derive_seed(seed, "service-demo"))
    return set(rng.sample(range(universe), size))


def mutate_set(base: set[int], universe: int, mutations: int, seed: int) -> set[int]:
    """A client copy differing from ``base`` in exactly ``mutations`` elements
    (half seeded deletions, half seeded insertions)."""
    rng = random.Random(derive_seed(seed, "service-demo-client"))
    deletions = rng.sample(sorted(base), min(len(base), mutations // 2))
    mutated = base - set(deletions)
    insertions = mutations - len(deletions)
    if insertions > universe - len(base):
        raise ParameterError(
            f"cannot insert {insertions} fresh elements: only "
            f"{universe - len(base)} of the universe are unused"
        )
    while insertions:
        element = rng.randrange(universe)
        if element not in base and element not in mutated:
            mutated.add(element)
            insertions -= 1
    return mutated


def demo_set_of_sets(universe: int, size: int, seed: int) -> SetOfSets:
    """A demo set-of-sets: the demo set chopped into 8-element children."""
    ordered = sorted(demo_set(universe, size, seed))
    return SetOfSets(ordered[i : i + 8] for i in range(0, len(ordered), 8))


def mutate_set_of_sets(
    base: SetOfSets, universe: int, mutations: int, seed: int
) -> SetOfSets:
    """A client copy with one seeded element change in ``mutations`` children."""
    rng = random.Random(derive_seed(seed, "service-demo-client"))
    children = [set(child) for child in sorted(base.children, key=sorted)]
    for index in rng.sample(range(len(children)), min(len(children), mutations)):
        children[index].add(rng.randrange(universe))
    return SetOfSets(children)


def _common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="demo-data seed shared by server and clients")
    parser.add_argument("--universe", type=int, default=DEFAULT_UNIVERSE)
    parser.add_argument("--size", type=int, default=DEFAULT_SIZE,
                        help="demo dataset size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__.splitlines()[0]
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run the demo sync server")
    _common_arguments(serve)
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="keep live sketches in a durable SketchStore "
                            "rooted at DIR (enables mutate; syncs are "
                            "answered from the store)")
    serve.add_argument("--anti-entropy", type=float, default=None,
                       metavar="SECONDS",
                       help="snapshot dirty datasets every SECONDS in the "
                            "background (requires --store)")
    serve.add_argument("--workers", type=int, default=1, metavar="W",
                       help="run a W-worker fleet behind a supervisor "
                            "(default 1: a single in-process server)")
    serve.add_argument("--drain-deadline", type=float, default=5.0,
                       metavar="SECONDS",
                       help="how long SIGTERM/SIGINT-triggered drains wait "
                            "for in-flight sessions (default 5)")
    serve.add_argument("--max-inflight", type=int, default=None, metavar="N",
                       help="admission control: cap concurrently running "
                            "sessions at N; excess hellos are shed with a "
                            "coded refusal instead of queueing")
    serve.add_argument("--client-rate", type=float, default=None, metavar="R",
                       help="admission control: per-client token-bucket "
                            "rate of R sessions/second")
    serve.add_argument("--client-burst", type=float, default=8.0, metavar="B",
                       help="token-bucket burst size (default 8)")

    sync = commands.add_parser("sync", help="reconcile a mutated demo copy")
    _common_arguments(sync)
    sync.add_argument("--protocol", default="ibf",
                      help="registered protocol name (default: ibf)")
    sync.add_argument("--mutations", type=int, default=16,
                      help="seeded mutations applied to the client copy")
    sync.add_argument("--difference-bound", type=int, default=None,
                      help="known difference bound d (omit for unknown-d)")

    mutate = commands.add_parser(
        "mutate", help="apply a delta to a server-side dataset"
    )
    mutate.add_argument("--host", default="127.0.0.1")
    mutate.add_argument("--port", type=int, default=8642)
    mutate.add_argument("--dataset", default="ibf",
                        help="dataset (protocol name) to mutate (default: ibf)")
    mutate.add_argument("--insert", type=int, nargs="*", default=[],
                        metavar="KEY", help="keys to insert")
    mutate.add_argument("--delete", type=int, nargs="*", default=[],
                        metavar="KEY", help="keys to delete")

    stats = commands.add_parser("stats", help="print the server metrics report")
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, default=8642)
    stats.add_argument("--json", action="store_true",
                       help="print the raw JSON report instead of the table")
    return parser


def _demo_datasets(args: argparse.Namespace) -> dict[str, object]:
    demo = demo_set(args.universe, args.size, args.seed)
    demo_sos = demo_set_of_sets(args.universe, args.size, args.seed)
    return {
        "ibf": demo,
        "cpi": demo,
        "iblt_of_iblts": demo_sos,
        "multiround": demo_sos,
        "cascading": demo_sos,
        "naive": demo_sos,
    }


def _admission_from(args: argparse.Namespace) -> AdmissionController | None:
    policy = AdmissionPolicy(
        max_inflight=args.max_inflight,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
    )
    return AdmissionController(policy) if policy.enabled else None


async def _run_until_drained(
    server: "SyncServer | SyncFleet", args: argparse.Namespace
) -> None:
    """Serve until SIGTERM/SIGINT (or cancellation), then drain gracefully.

    Shared by the single-server and fleet paths: both expose the same
    ``serve_forever`` / ``adrain`` surface.
    """
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed = install_signal_drain(loop, stop.set)
    serve_task = asyncio.ensure_future(server.serve_forever())
    try:
        stop_wait = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait(
                {serve_task, stop_wait}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            stop_wait.cancel()
        print("draining...", flush=True)
        summary = await server.adrain(args.drain_deadline)
        print(
            f"drained: {summary['drained']} finished, "
            f"{summary['aborted']} aborted",
            flush=True,
        )
    finally:
        serve_task.cancel()
        try:
            await serve_task
        except (asyncio.CancelledError, ReproError):
            pass
        remove_signal_drain(loop, installed)


async def _serve(args: argparse.Namespace) -> None:
    datasets = _demo_datasets(args)
    admission = _admission_from(args)
    extra = f" (store: {args.store})" if args.store else ""
    if args.workers > 1:
        async with SyncFleet(
            datasets,
            workers=args.workers,
            host=args.host,
            port=args.port,
            store_root=args.store,
            admission=admission,
            seed=args.seed,
            drain_deadline=args.drain_deadline,
            anti_entropy_interval=args.anti_entropy,
        ) as fleet:
            print(
                f"serving {sorted(datasets)} on {args.host}:{fleet.port} "
                f"with {args.workers} workers{extra}",
                flush=True,
            )
            await _run_until_drained(fleet, args)
        return
    store = SketchStore(args.store) if args.store else None
    async with SyncServer(
        datasets,
        host=args.host,
        port=args.port,
        store=store,
        anti_entropy_interval=args.anti_entropy,
        drain_deadline=args.drain_deadline,
        admission=admission,
    ) as server:
        print(
            f"serving {sorted(datasets)} on {args.host}:{server.port}{extra}",
            flush=True,
        )
        await _run_until_drained(server, args)


async def _sync(args: argparse.Namespace) -> int:
    from repro.protocols import registry

    if registry.get(args.protocol).input_kind == "set_of_sets":
        base = demo_set_of_sets(args.universe, args.size, args.seed)
        mine = mutate_set_of_sets(base, args.universe, args.mutations, args.seed)
    else:
        base = demo_set(args.universe, args.size, args.seed)
        mine = mutate_set(base, args.universe, args.mutations, args.seed)
    options = ReconcileOptions(
        seed=args.seed,
        universe_size=args.universe,
        difference_bound=args.difference_bound,
    )
    result = await areconcile(
        args.host, args.port, args.protocol, mine, options=options
    )
    status = "reconciled" if result.success else "FAILED"
    print(
        f"{status}: {args.protocol} in {result.total_bits} bits over "
        f"{result.num_rounds} round(s), {result.attempts} attempt(s)"
    )
    if result.success and result.recovered is not None:
        matches = result.recovered == base
        print(f"recovered the server dataset: {'yes' if matches else 'NO'}")
        return 0 if matches else 1
    return 0 if result.success else 1


async def _mutate(args: argparse.Namespace) -> int:
    ack = await amutate(
        args.host, args.port, args.dataset,
        insert=args.insert, delete=args.delete,
    )
    print(
        f"mutated {args.dataset}: +{ack['inserted']} / -{ack['deleted']} keys "
        f"(size now {ack['size']})"
    )
    return 0


async def _stats(args: argparse.Namespace) -> None:
    report = await afetch_stats(args.host, args.port)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_stats_report(report), end="")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "serve":
            asyncio.run(_serve(args))
            return 0
        if args.command == "sync":
            return asyncio.run(_sync(args))
        if args.command == "mutate":
            return asyncio.run(_mutate(args))
        asyncio.run(_stats(args))
        return 0
    except KeyboardInterrupt:
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
