"""Undo and compensation logs.

Two recovery mechanisms coexist, exactly as open nested transaction theory
prescribes:

- **Page-level undo** for work whose subtransaction has *not* yet committed:
  before-images of slot writes, applied in reverse on abort.
- **Compensation** for subtransactions that *have* committed and released
  their low-level locks: the before-images are gone (other transactions may
  already have built on the pages), so the abort re-sends the registered
  compensating method calls instead.

Both kinds of record live in one chronological journal per execution frame,
so that an abort can process them strictly in reverse order of execution —
interleavings of direct slot writes and committed subtransactions roll back
correctly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Union


class _Sentinel:
    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self._name


#: the forward action deleted the slot (there is no after-value)
DELETED = _Sentinel("DELETED")


def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class UndoRecord:
    """Before/after-image of one slot write (or slot creation/deletion).

    ``lsn`` is the position of the matching durable WAL record, when a log
    is attached.  Consuming the entry during rollback or recovery emits a
    compensation log record tagged ``consumes: lsn`` so that analysis after
    a crash knows this entry is already undone and never replays it.

    ``after`` (the value the forward write left behind) makes undo safe
    under *commuting* concurrency: protocols in this codebase may let two
    update methods write the same slot concurrently when their methods
    commute, so by the time an abort consumes this record the slot may
    hold later writers' deltas on top of ours.  Blindly restoring the
    absolute ``before`` would erase their work; when the current value has
    moved past ``after`` (numerically), undo subtracts exactly the forward
    delta instead.  Under strict page locking ``current == after`` always,
    and the two strategies coincide.
    """

    page_id: str
    slot: Any
    had_slot: bool
    before: Any
    after: Any = field(compare=False)
    lsn: int | None = field(default=None, compare=False)

    def resolve(self, store) -> tuple:
        """The concrete mutation undoing this record *now*.

        Returns ``("set", value)`` or ``("del", None)`` against the store's
        current state, choosing delta-undo over the absolute before-image
        when later commuting writers have moved the slot past ``after``.
        """
        page = store.get(self.page_id)
        exact = ("set", self.before) if self.had_slot else ("del", None)
        if self.after is DELETED:
            return exact
        if not page.has(self.slot):
            # The forward-written slot is gone: nothing newer to preserve.
            return exact
        current = page.read(self.slot)
        if current == self.after:
            return exact
        base = self.before if self.had_slot else 0
        if _numeric(current) and _numeric(self.after) and _numeric(base):
            return ("set", base + (current - self.after))
        return exact

    def apply(self, store) -> None:
        """Undo the forward action on the page (delta-aware, see above)."""
        action, value = self.resolve(store)
        page = store.get(self.page_id)
        if action == "set":
            page.slots[self.slot] = value
        else:
            page.slots.pop(self.slot, None)


@dataclass(frozen=True)
class PageAllocationRecord:
    """Undo record for a page allocated inside the transaction.

    ``lsn`` points at the durable ``alloc`` record, like
    :attr:`UndoRecord.lsn`.
    """

    page_id: str
    lsn: int | None = field(default=None, compare=False)

    def apply(self, store) -> None:
        if self.page_id in store:
            store.deallocate(self.page_id)


@dataclass(frozen=True)
class CompensationRecord:
    """A semantic undo: re-send ``method(args)`` to ``oid`` on abort.

    ``args`` are deep-copied at registration time: the caller may mutate
    its argument objects after the subtransaction commits, and a
    compensation replayed later (abort or crash recovery) must see the
    values as they were when the forward method ran.

    ``lsn`` is the record's position in the durable write-ahead log, when
    one is attached — rollbacks mark replayed compensations as consumed
    (``comp-done``) by this LSN.
    """

    oid: str
    method: str
    args: tuple
    lsn: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", copy.deepcopy(tuple(self.args)))

    def __str__(self) -> str:
        rendered = ", ".join(repr(a) for a in self.args)
        return f"compensate {self.oid}.{self.method}({rendered})"


LogEntry = Union[UndoRecord, PageAllocationRecord, CompensationRecord]


class FrameLog:
    """The chronological journal of one execution frame.

    When the frame commits, its journal is merged into the parent frame
    (conventional schedulers) or reduced to a single compensation record
    (open nested schedulers) — see ``ObjectDatabase``.
    """

    def __init__(self) -> None:
        self.entries: list[LogEntry] = []

    def record(self, entry: LogEntry) -> None:
        self.entries.append(entry)

    def merge_child(self, child: "FrameLog") -> None:
        """Absorb a finished child frame, preserving chronology."""
        self.entries.extend(child.entries)
        child.entries = []

    @property
    def undo_entries(self) -> list[LogEntry]:
        return [e for e in self.entries if not isinstance(e, CompensationRecord)]

    @property
    def compensations(self) -> list[CompensationRecord]:
        return [e for e in self.entries if isinstance(e, CompensationRecord)]

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def __len__(self) -> int:
        return len(self.entries)
