"""Concurrency-control schedulers.

Four protocols, all speaking the :class:`~repro.locking.interfaces.Scheduler`
interface consumed by :class:`~repro.oodb.database.ObjectDatabase`:

- :class:`~repro.locking.page_2pl.PageLocking2PL` — the conventional
  baseline: strict two-phase read/write locks on pages, held by the
  top-level transaction until commit.
- :class:`~repro.locking.closed_nested.ClosedNestedLocking` — Moss-style
  closed nesting: subtransactions acquire page locks and pass them to their
  parent at subcommit; only top-level transactions are isolated.
- :class:`~repro.locking.multilevel.MultiLevelLocking` — layered semantic
  locking: objects are statically assigned to layers; a subtransaction's
  locks are released at its end, retaining a semantic lock at the next
  layer.  Objects without a layer assignment are handled conservatively
  (locks held to top-level commit).
- :class:`~repro.locking.open_nested.OpenNestedLocking` — the paper's
  protocol: commutativity-based locks on the *general* (non-layered) call
  structure; a subtransaction's locks are released when its caller
  finishes, retaining the caller's semantic lock; aborts run compensations.
"""

from repro.locking.interfaces import NoConcurrencyControl, Scheduler
from repro.locking.lock_table import LockTable
from repro.locking.page_2pl import PageLocking2PL
from repro.locking.closed_nested import ClosedNestedLocking
from repro.locking.multilevel import MultiLevelLocking
from repro.locking.open_nested import OpenNestedLocking
from repro.locking.optimistic import OptimisticCertifier


def make_scheduler(name: str, layers: dict[str, int] | None = None):
    """Instantiate a protocol by its bench name."""
    if name == "page-2pl":
        return PageLocking2PL()
    if name == "closed-nested":
        return ClosedNestedLocking()
    if name == "multilevel":
        if layers is None:
            raise ValueError("the multilevel protocol needs a layer assignment")
        return MultiLevelLocking(layers)
    if name == "open-nested-oo":
        return OpenNestedLocking()
    if name == "optimistic-oo":
        return OptimisticCertifier()
    raise ValueError(f"unknown protocol {name!r}")


__all__ = [
    "ClosedNestedLocking",
    "LockTable",
    "MultiLevelLocking",
    "NoConcurrencyControl",
    "OpenNestedLocking",
    "OptimisticCertifier",
    "PageLocking2PL",
    "Scheduler",
    "make_scheduler",
]
