"""Connection dispatch: which worker serves an incoming session.

Two routing regimes, matching the two fleet deployment shapes:

* **Ownership routing** (store-backed fleets) -- datasets are partitioned
  across workers by name: :func:`owner_of` mixes the dataset name's
  fingerprint with a salt derived from the fleet seed and takes the top of
  the 64-bit value, so ``mutate`` frames and ``ibf`` sessions for a dataset
  always land on the worker that holds its live sketches and journal
  partition.  Ownership is a pure function of
  ``(name, num_workers, seed)``: the supervisor, a restarted worker, and
  any test can recompute it without coordination.

* **Least-loaded-of-d dispatch** (replicated fleets, no store) -- every
  worker holds every dataset, so any worker can serve any session.  Blind
  round-robin ignores that session durations vary wildly (a multiround
  set-of-sets sync vs. a one-round IBF sync); the balls-and-bins analysis
  behind the two-choice paradigm (Alon--Gurel-Gurevich--Lubetzky in
  PAPERS.md: even *some* memory of where load went beats none) says
  sampling ``d`` workers and picking the less loaded collapses the max
  load gap.  :class:`LeastLoadedDispatcher` samples ``d`` workers with a
  deterministic splitmix64 sequence (reproducible under test), picks the
  least in-flight one, and enforces an optional per-worker in-flight
  budget -- when every sampled worker is at budget it falls back to the
  global minimum, and when *all* workers are at budget it returns ``None``
  so the supervisor sheds the connection instead of queueing unboundedly.
"""

from __future__ import annotations

from typing import Sequence

from repro.hashing import derive_seed
from repro.hashing.mix import MASK64, mix64

#: Label mixed into the fleet seed to derive the ownership salt.
_OWNER_LABEL = "service-fleet-owner"


def owner_fingerprint(name: str, seed: int) -> int:
    """The salted 64-bit fingerprint of a dataset name (BLAKE2b-derived,
    like every other seed expansion in the library, then splitmix64-mixed)."""
    return mix64(derive_seed(seed, _OWNER_LABEL, name) & MASK64)


def owner_of(name: str, num_workers: int, seed: int) -> int:
    """The worker that owns dataset ``name`` in a ``num_workers`` fleet.

    Multiplies the mixed 64-bit fingerprint down to the worker range, so
    the top bits of the mixed value decide and any worker count works;
    growing the fleet only moves prefix ranges.
    """
    if num_workers <= 1:
        return 0
    return (owner_fingerprint(name, seed) * num_workers) >> 64


class LeastLoadedDispatcher:
    """Pick a worker for one connection by sampled in-flight load.

    The supervisor owns the authoritative per-worker in-flight counts (it
    sees every dispatch and every completion report), so this is plain
    synchronous bookkeeping -- no cross-process reads on the hot path.
    """

    def __init__(
        self,
        num_workers: int,
        *,
        choices: int = 2,
        per_worker_budget: int | None = None,
        seed: int = 0,
    ) -> None:
        self.num_workers = num_workers
        self.choices = max(1, min(choices, num_workers))
        self.per_worker_budget = per_worker_budget
        self._loads = [0] * num_workers
        self._state = derive_seed(seed, "service-fleet-dispatch") & MASK64

    @property
    def loads(self) -> Sequence[int]:
        return tuple(self._loads)

    def _next_random(self) -> int:
        # splitmix64 stream: deterministic for a given fleet seed, so tests
        # can replay dispatch decisions.
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        return mix64(self._state)

    def pick(self, eligible: Sequence[int] | None = None) -> int | None:
        """The worker for the next connection, or ``None`` when all are at
        budget (the caller sheds the connection).

        ``eligible`` restricts the choice (e.g. to workers that are alive
        and ready); defaults to every worker.
        """
        pool = list(range(self.num_workers)) if eligible is None else list(eligible)
        if not pool:
            return None
        sampled = []
        for _ in range(min(self.choices, len(pool))):
            index = self._next_random() % len(pool)
            sampled.append(pool[index])
        best = min(sampled, key=lambda w: self._loads[w])
        budget = self.per_worker_budget
        if budget is not None and self._loads[best] >= budget:
            # The sample missed every under-budget worker; fall back to the
            # global least-loaded before giving up.
            best = min(pool, key=lambda w: self._loads[w])
            if self._loads[best] >= budget:
                return None
        return best

    def assign(self, worker: int) -> None:
        self._loads[worker] += 1

    def complete(self, worker: int) -> None:
        self._loads[worker] = max(0, self._loads[worker] - 1)

    def reset(self, worker: int) -> None:
        """Forget a worker's load (it crashed; its sessions died with it)."""
        self._loads[worker] = 0
