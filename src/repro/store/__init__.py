"""The persistent, incrementally-maintained sketch store.

Linear sketches admit O(1) in-place updates per insert/delete, so a server
that keeps its sketches *live* answers a sync in O(d) work instead of
re-encoding O(n) elements per session.  This package owns that state:

* :class:`SketchStore` -- live IBLTs, difference estimators, running
  verification hashes, and maintained sizes per named dataset, with
  optional durability (atomic snapshots plus an append-only journal with
  replay-on-restart) and config-fingerprint cache invalidation;
* :class:`SketchConfig` -- the protocol identity a sketch is keyed on;
* :class:`StoreView` and :func:`stored_ibf_party` -- the live sketch source
  the shared ``ibf`` flow runs over, and the builder that picks it: a
  store-served session is byte-identical to a from-scratch one;
* :class:`Journal` -- the append-only line journal (write-ahead log) of
  both the store and the gossip replica, one codec per entry kind;
* :class:`AntiEntropyLoop` -- the background snapshot sweep with deferred
  retries.

See docs/store.md for the architecture, the durability model, and the
invalidation rules.
"""

from repro.store.antientropy import AntiEntropyLoop
from repro.store.config import SketchConfig
from repro.store.journal import Journal
from repro.store.parties import StoreView, stored_ibf_party
from repro.store.sketch import SNAPSHOT_VERSION, SketchStore

__all__ = [
    "AntiEntropyLoop",
    "Journal",
    "SNAPSHOT_VERSION",
    "SketchConfig",
    "SketchStore",
    "StoreView",
    "stored_ibf_party",
]
