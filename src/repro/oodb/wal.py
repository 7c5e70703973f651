"""Durable write-ahead logging and crash recovery.

The in-memory substrate already keeps, per execution frame, exactly the
information open nested transaction theory prescribes (``repro.oodb.log``):
page-level before-images for uncommitted work, semantic compensations for
subtransactions that committed and released their low-level locks.  This
module makes that information *durable*: every physical page mutation and
every journal state transition is appended to a :class:`WriteAheadLog`,
and :func:`recover` rebuilds a database from the log alone after a crash.

Record stream
-------------

Records are JSON-serializable dicts, one per line in file mode, each
stamped with its ``lsn`` (position in the stream):

======================  =====================================================
``begin``               a top-level transaction started (synced)
``alloc``               page allocated (``j`` true when journaled, i.e. the
                        undo is a deallocation owned by the transaction)
``dealloc``             page deallocated during a rollback (carries the full
                        slot snapshot so a partial rollback can be reverted)
``set`` / ``del``       physical slot mutation with redo (``value``) *and*
                        undo (``had``/``before``) images; ``j`` true when the
                        matching :class:`UndoRecord` survives in the
                        transaction's effective journal (false for
                        bootstrap, compensating and recovery writes)
``subcommit``           an open-nested subtransaction committed: journal
                        entries from ``from_lsn`` are superseded by the
                        compensation ``(oid, method, args)`` (synced before
                        the low-level locks release — the open-nesting
                        durability rule)
``jtrunc``              journal truncated from ``from_lsn`` (a completed
                        inline subtransaction rollback)
``comp-done``           the compensation journaled at ``lsn`` was fully
                        re-sent during a rollback (synced: the logical
                        analogue of an ARIES CLR)
``commit``              commit record (synced *before* locks release)
``abort``               top-level rollback started
``abort-done``          top-level rollback finished; the journal is empty
``ckpt-begin``          a fuzzy checkpoint started
``ckpt-end``            checkpoint complete: carries the active-transaction
                        table (the serialized :class:`AnalysisState`) and
                        the dirty-page table (``{page_id: recLSN}``) so
                        recovery against a durable page store starts from
                        here instead of genesis
======================  =====================================================

Recovery
--------

:func:`recover` is ARIES-shaped, adapted to open nesting:

1. **Analysis** — winners are transactions with a durable ``commit``,
   finished rollbacks have ``abort-done``; everything else seen in the log
   is a loser.  Each loser's *effective journal* is reconstructed by
   replaying the journal transitions (``j``-flagged records append,
   ``subcommit``/``jtrunc`` truncate, ``comp-done`` consumes).  With a
   durable page store, analysis resumes from the last complete
   checkpoint's serialized :class:`AnalysisState` and folds in only the
   log tail.
2. **Redo** — against the in-memory store, the pages are rebuilt from
   scratch by replaying every physical record in LSN order ("repeating
   history": the durable state at the instant of the crash, including any
   partial rollback work).  Against a durable store, redo is
   *conditional*: it starts at the reconstructed dirty-page table's
   min(recLSN) and applies a record only when its LSN is newer than the
   page image's pageLSN — recovery cost is proportional to the tail since
   the last checkpoint, not to all history.
3. **Revert** — a rollback step interrupted mid-flight (physical records
   after the loser's last ``comp-done``/``jtrunc`` marker) is physically
   reverted using the records' own before-images, so a partially executed
   compensation is never applied one-and-a-half times.  Reverts are logged
   like any other write, which is what makes a crash *during recovery*
   recoverable by simply running :func:`recover` again.
4. **Undo** — the losers' journals are processed in global reverse-LSN
   order: before-images restore uncommitted low-level writes (idempotent),
   compensations are re-sent through the object layer (logged with
   ``comp-done`` as they complete).  Each finished loser gets an
   ``abort-done`` record, making recovery itself idempotent: a second
   :func:`recover` over the extended log is pure redo and yields a
   byte-identical page store.
"""

from __future__ import annotations

import hashlib
import json
import os
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import DatabaseError, SimulatedCrash
from repro.obs.events import EventBus, WalAppend, WalSync
from repro.oodb.context import TxnStatus
from repro.oodb.log import (
    DELETED,
    CompensationRecord,
    PageAllocationRecord,
    UndoRecord,
)
from repro.oodb.pages import Page

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan
    from repro.oodb.database import ObjectDatabase

#: record types that mutate the page store (replayed by the redo pass)
PHYSICAL_TYPES = frozenset({"alloc", "dealloc", "set", "del"})


def _parse(line: bytes) -> dict:
    """One JSONL line back into its record (the only place records parse)."""
    return json.loads(line)


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except FileNotFoundError:
        return 0


class LogFile(Sequence):
    """A log's durable prefix left on disk: one byte offset per record.

    The records a file-mode log has synced are already in its file, so
    keeping a dict copy of each would hold the whole history in memory a
    second time.  This sequence keeps only their offsets (8 bytes each) and
    parses a record when it is read: an index or a slice parses just the
    records it covers, iteration streams them one at a time.  Records
    appended with no file behind them (:meth:`extend`, a loaded log that
    recovery extends in memory) stay in a list tail after the file's.
    Each read returns a fresh dict; it compares equal to a list of records.
    """

    __slots__ = ("path", "_offsets", "_end", "_tail")

    def __init__(self, path: str, offsets: Iterable[int] = (), end: int = 0):
        self.path = path
        self._offsets = array("q", offsets)
        #: file size after the last indexed line: the next line's offset
        self._end = end
        self._tail: list[dict] = []

    def add_lines(self, lines: list[bytes]) -> None:
        """Index lines just appended to the file, in order."""
        if self._tail:
            raise DatabaseError(
                f"{self.path}: cannot index file records after in-memory ones"
            )
        offsets, end = self._offsets, self._end
        for line in lines:
            offsets.append(end)
            end += len(line)
        self._end = end

    def extend(self, records: list[dict]) -> None:
        """Keep records that have no file line in the in-memory tail."""
        self._tail.extend(records)

    def _read(self, start: int, stop: int) -> Iterator[dict]:
        """Parse the file's records ``start .. stop - 1`` in order."""
        if start >= stop:
            return
        offsets = self._offsets
        with open(self.path, "rb") as fh:
            position = -1
            for index in range(start, stop):
                offset = offsets[index]
                if offset != position:
                    fh.seek(offset)
                line = fh.readline()
                position = offset + len(line)
                yield _parse(line)

    def __len__(self) -> int:
        return len(self._offsets) + len(self._tail)

    def __iter__(self) -> Iterator[dict]:
        yield from self._read(0, len(self._offsets))
        yield from self._tail

    def __getitem__(self, index):
        on_disk = len(self._offsets)
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("log record slices take no step")
            records = list(self._read(start, min(stop, on_disk)))
            records.extend(
                self._tail[max(start - on_disk, 0) : max(stop - on_disk, 0)]
            )
            return records
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("log record index out of range")
        if index >= on_disk:
            return self._tail[index - on_disk]
        return next(self._read(index, index + 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"<LogFile {self.path!r}: {len(self)} records>"


class WriteAheadLog:
    """An append-only log with explicit sync points.

    Appended records sit in a volatile buffer until :meth:`sync` moves them
    to the durable prefix (and, in file mode, to disk).  :meth:`crash`
    models the system dying: the buffer is lost, the durable prefix is all
    recovery will ever see.

    ``records`` is the durable prefix.  With no ``path`` it is a list of
    the record dicts.  With a ``path`` it is a :class:`LogFile`: the synced
    records live only in the file, and memory holds one offset per record,
    so a long-running durable service does not keep its history twice.
    :meth:`load` builds the same view over an existing file without
    parsing it, which is what lets :func:`recover` parse only the tail it
    replays.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        #: the durable prefix — everything a crash cannot take away
        self.records: list[dict] | LogFile = (
            [] if path is None else LogFile(path, end=_file_size(path))
        )
        self._buffer: list[dict] = []
        self._crashed = False
        #: lazily opened, kept across syncs: one buffered write + one flush
        #: per sync point instead of an open/write-per-record cycle
        self._fh = None
        #: running analysis state (durable-store mode only; None keeps the
        #: in-memory hot path free of per-record bookkeeping)
        self.analysis: "AnalysisState | None" = None
        #: the last *durable* ``ckpt-end`` record (tracked at sync time, so
        #: a crash can never leave a pointer at a buffered checkpoint)
        self._durable_ckpt: dict | None = None
        # Observability (bound by the owning database, see :meth:`bind`):
        # an inert bus until then, and no metrics at all — the log must
        # stay usable standalone (recovery rebuilds databases around it).
        self.bus = EventBus()
        self._rec_family = None
        self._n_syncs = None
        self._n_synced_records = None

    def bind(self, bus, metrics) -> None:
        """Adopt the owning database's event bus and metrics registry."""
        self.bus = bus
        self._rec_family = metrics.counter(
            "wal_records_total",
            "WAL records appended, by record type",
            labelnames=("type",),
        )
        self._n_syncs = metrics.counter(
            "wal_syncs_total", "write barriers forced"
        )
        self._n_synced_records = metrics.counter(
            "wal_synced_records_total", "records made durable by a sync"
        )

    # -- appending ----------------------------------------------------------

    @property
    def next_lsn(self) -> int:
        return len(self.records) + len(self._buffer)

    def append(self, record: dict) -> int:
        """Buffer one record; returns its LSN (or -1 after a crash)."""
        if self._crashed:
            return -1
        record = dict(record)
        lsn = record["lsn"] = self.next_lsn
        self._buffer.append(record)
        if self.analysis is not None:
            # Observing at append (not sync) is safe: a checkpoint's state
            # is only ever *used* when its ckpt-end record survived, and a
            # surviving ckpt-end implies every observed record before it
            # survived too (syncs are global and in append order).
            self.analysis.observe(record)
        if self._rec_family is not None:
            self._rec_family.labels(type=record.get("t", "?")).value += 1
        bus = self.bus
        if bus.active:
            bus.emit(
                WalAppend(
                    txn=record.get("txn") or "",
                    rec=record.get("t", "?"),
                    lsn=lsn,
                    tick=bus.now(),
                )
            )
        return lsn

    def sync(self) -> None:
        """Force the buffer to the durable prefix (a write barrier).

        In file mode the whole buffer goes down as a single write followed
        by a single flush on a persistent handle — the write barrier is per
        sync point, not per record.
        """
        if self._crashed or not self._buffer:
            return
        if self.path is not None:
            if self._fh is None:
                self._fh = open(self.path, "ab")
            lines = [
                json.dumps(record, sort_keys=True).encode() + b"\n"
                for record in self._buffer
            ]
            self._fh.write(b"".join(lines))
            self._fh.flush()
            self.records.add_lines(lines)
        else:
            self.records.extend(self._buffer)
        flushed = len(self._buffer)
        for record in self._buffer:
            if record.get("t") == "ckpt-end":
                self._durable_ckpt = record
        self._buffer = []
        if self._n_syncs is not None:
            self._n_syncs.value += 1
            self._n_synced_records.value += flushed
        bus = self.bus
        if bus.active:
            bus.emit(
                WalSync(
                    records=flushed,
                    lsn=len(self.records) - 1,
                    tick=bus.now(),
                )
            )

    def close(self) -> None:
        """Release the backing file handle (safe to call repeatedly)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def force_up_to(self, lsn: int | None) -> None:
        """The WAL rule's force: make everything up to ``lsn`` durable.

        Syncing is all-or-nothing here, so any ``lsn`` beyond the durable
        prefix forces the whole buffer; ``None`` forces unconditionally.
        """
        if self._crashed:
            return
        if lsn is None or lsn >= len(self.records):
            self.sync()

    def enable_analysis(self) -> None:
        """Start (or catch up) the running analysis state.

        Durable-store databases call this so that every checkpoint can
        serialize the exact active-transaction table for its prefix.
        """
        state = AnalysisState()
        for record in self.records:
            state.observe(record)
        for record in self._buffer:
            state.observe(record)
        self.analysis = state

    def durable_checkpoint(self) -> dict | None:
        """The last complete (durable ``ckpt-end``) checkpoint record."""
        return self._durable_ckpt

    # -- crash surface ------------------------------------------------------

    def crash(self) -> None:
        """The system dies: unsynced records are gone, appends turn no-op."""
        self._buffer = []
        self._crashed = True

    def reopen(self) -> None:
        """Reopen the log for recovery appends after a crash."""
        self._crashed = False

    @property
    def crashed(self) -> bool:
        return self._crashed

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_list(self) -> list[dict]:
        return [dict(r) for r in self.records]

    @classmethod
    def load(cls, path: str) -> "WriteAheadLog":
        """Open a JSONL log file as the durable prefix of a path-less log.

        One pass indexes the file's lines without parsing them; the only
        record parsed here is the last ``ckpt-end`` (recovery starts from
        it).  Records the loaded log appends stay in memory, so recovering
        a loaded log never modifies its file unless the caller re-attaches
        ``path`` — which must then be this same file.
        """
        wal = cls()
        offsets = array("q")
        checkpoints: list[int] = []
        end = 0
        with open(path, "rb") as fh:
            for line in fh:
                if line.strip():
                    if b'"ckpt-end"' in line:
                        checkpoints.append(len(offsets))
                    offsets.append(end)
                end += len(line)
        wal.records = LogFile(path, offsets, end)
        for index in reversed(checkpoints):
            # A candidate line only mentions the string; the record's type
            # decides (a slot value may read "ckpt-end" too).
            record = wal.records[index]
            if record.get("t") == "ckpt-end":
                wal._durable_ckpt = record
                break
        return wal

    @classmethod
    def from_records(cls, records: list[dict]) -> "WriteAheadLog":
        wal = cls()
        wal.records = [dict(r) for r in records]
        for record in wal.records:
            if record.get("t") == "ckpt-end":
                wal._durable_ckpt = record
        return wal


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What one :func:`recover` run found and did."""

    records: int = 0
    winners: list[str] = field(default_factory=list)
    finished_aborts: list[str] = field(default_factory=list)
    losers: list[str] = field(default_factory=list)
    redo_applied: int = 0
    reverted: int = 0
    undone: int = 0
    compensations_replayed: int = 0
    compensations_skipped: int = 0

    def describe(self) -> str:
        return (
            f"recovered {self.records} records: "
            f"{len(self.winners)} winner(s) {sorted(self.winners)}, "
            f"{len(self.losers)} loser(s) {sorted(self.losers)} "
            f"(redo {self.redo_applied}, revert {self.reverted}, "
            f"undo {self.undone}, compensations {self.compensations_replayed}"
            + (
                f", SKIPPED {self.compensations_skipped}"
                if self.compensations_skipped
                else ""
            )
            + ")"
        )


def _journal_entry(rec: dict):
    """The in-memory journal entry a ``j``-flagged physical record implies.

    The entry keeps its record's LSN so that replaying it during recovery
    emits a ``consumes``-tagged compensation log record — a crash during
    recovery then sees the consumption and does not replay it twice.
    """
    if rec["t"] == "alloc":
        return PageAllocationRecord(rec["page"], lsn=rec["lsn"])
    return UndoRecord(
        page_id=rec["page"],
        slot=rec["slot"],
        had_slot=rec["had"],
        before=rec["before"],
        after=rec["value"] if rec["t"] == "set" else DELETED,
        lsn=rec["lsn"],
    )


def _entry_to_dict(entry) -> dict:
    """Serialize one journal entry for a checkpoint's transaction table."""
    if isinstance(entry, PageAllocationRecord):
        return {"k": "alloc", "page": entry.page_id, "lsn": entry.lsn}
    if isinstance(entry, CompensationRecord):
        return {
            "k": "comp",
            "oid": entry.oid,
            "method": entry.method,
            "args": list(entry.args),
            "lsn": entry.lsn,
        }
    data = {
        "k": "undo",
        "page": entry.page_id,
        "slot": entry.slot,
        "had": entry.had_slot,
        "before": entry.before,
        "lsn": entry.lsn,
    }
    if entry.after is DELETED:
        data["deleted"] = True
    else:
        data["after"] = entry.after
    return data


def _entry_from_dict(data: dict):
    kind = data["k"]
    if kind == "alloc":
        return PageAllocationRecord(data["page"], lsn=data["lsn"])
    if kind == "comp":
        return CompensationRecord(
            data["oid"], data["method"], tuple(data["args"]), lsn=data["lsn"]
        )
    if data.get("deleted"):
        after = DELETED
    elif "after" in data:
        after = data["after"]
    else:
        raise DatabaseError(
            f"WAL undo entry at LSN {data['lsn']} has neither 'after' nor "
            "'deleted'; its undo cannot be resolved"
        )
    return UndoRecord(
        page_id=data["page"],
        slot=data["slot"],
        had_slot=data["had"],
        before=data["before"],
        after=after,
        lsn=data["lsn"],
    )


class AnalysisState:
    """The ARIES analysis pass as a record-at-a-time state machine.

    One implementation serves three callers: :func:`recover`'s full-log
    scan, the WAL's *running* state in durable-store mode (so a fuzzy
    checkpoint can serialize the exact active-transaction table for its
    prefix), and recovery-from-checkpoint (deserialize the table, fold in
    only the tail).  All three are byte-equivalent by construction.

    Beyond winners/losers/journals/boundaries, the state tracks each live
    transaction's *window*: its non-journaled, non-``consumes`` physical
    records since its last rollback-progress marker — the writes of a
    compensation that started but whose ``comp-done`` never became
    durable.  Reverting them interleaved with the journal's undo entries
    (reverse global LSN order) walks each slot's history backward;
    ``consumes``-tagged records are excluded because they are durably
    applied undo steps whose before-images may be stale.
    """

    __slots__ = (
        "seen",
        "committed",
        "aborted",
        "journals",
        "boundary",
        "windows",
        "winner_order",
    )

    def __init__(self):
        self.seen: dict[str, None] = {}  # ordered set of transaction labels
        self.committed: set[str] = set()
        self.aborted: set[str] = set()
        self.journals: dict[str, dict[int, Any]] = {}
        self.boundary: dict[str, int] = {}
        self.windows: dict[str, list[dict]] = {}
        self.winner_order: list[str] = []

    def _journal(self, txn: str) -> dict[int, Any]:
        return self.journals.setdefault(txn, {})

    def _truncate(self, txn: str, from_lsn: int) -> None:
        journal = self._journal(txn)
        for lsn in [lsn for lsn in journal if lsn >= from_lsn]:
            del journal[lsn]

    def observe(self, rec: dict) -> None:
        t = rec["t"]
        txn = rec.get("txn")
        if txn is not None:
            self.seen.setdefault(txn)
        if rec.get("consumes") is not None:
            # A compensation log record: one undo step durably applied
            # during a live rollback (or a prior recovery).  The consumed
            # journal entry must never be replayed — its before-image is
            # stale once later writers touched the slot.
            self._journal(txn).pop(rec["consumes"], None)
        if t in PHYSICAL_TYPES:
            if rec.get("j"):
                self._journal(txn)[rec["lsn"]] = _journal_entry(rec)
            elif txn is not None and rec.get("consumes") is None:
                self.windows.setdefault(txn, []).append(rec)
        elif t == "subcommit":
            self._truncate(txn, rec["from_lsn"])
            self._journal(txn)[rec["lsn"]] = CompensationRecord(
                rec["oid"], rec["method"], tuple(rec["args"]), lsn=rec["lsn"]
            )
        elif t == "jtrunc":
            self._truncate(txn, rec["from_lsn"])
            self.boundary[txn] = rec["lsn"]
            self.windows.pop(txn, None)
        elif t == "comp-done":
            self._journal(txn).pop(rec["target"], None)
            self.boundary[txn] = rec["lsn"]
            self.windows.pop(txn, None)
        elif t == "commit":
            self.committed.add(txn)
            self.winner_order.append(txn)
            self._finish(txn)
        elif t == "abort-done":
            self.aborted.add(txn)
            self._finish(txn)

    def _finish(self, txn: str) -> None:
        """Prune a finished transaction's recovery state.

        Only *active* transactions can become losers, so their journals,
        windows and rollback boundaries are dead weight the moment the
        commit / abort-done record lands.  Pruning keeps the serialized
        transaction table O(active), which is what makes checkpoint cost —
        and recovery-from-checkpoint cost — flat in history length.  The
        winner/abort *orderings* stay cumulative (plain label lists): the
        crash oracle replays every winner since genesis.
        """
        self.seen.pop(txn, None)
        self.journals.pop(txn, None)
        self.boundary.pop(txn, None)
        self.windows.pop(txn, None)

    def losers(self) -> list[str]:
        return [
            txn
            for txn in self.seen
            if txn not in self.committed and txn not in self.aborted
        ]

    # -- checkpoint (de)serialization ---------------------------------------

    def to_dict(self) -> dict:
        # ``committed`` is not serialized: it is always set(winner_order).
        return {
            "seen": list(self.seen),
            "aborted": sorted(self.aborted),
            "winner_order": list(self.winner_order),
            "journals": {
                txn: [[lsn, _entry_to_dict(e)] for lsn, e in journal.items()]
                for txn, journal in self.journals.items()
                if journal
            },
            "boundary": dict(self.boundary),
            "windows": {
                txn: [dict(r) for r in recs]
                for txn, recs in self.windows.items()
                if recs
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisState":
        state = cls()
        state.seen = {txn: None for txn in data["seen"]}
        state.aborted = set(data["aborted"])
        state.winner_order = list(data["winner_order"])
        state.committed = set(state.winner_order)
        state.journals = {
            txn: {lsn: _entry_from_dict(e) for lsn, e in pairs}
            for txn, pairs in data["journals"].items()
        }
        state.boundary = dict(data["boundary"])
        state.windows = {
            txn: [dict(r) for r in recs]
            for txn, recs in data["windows"].items()
        }
        return state


def _redo(rec: dict, store) -> int:
    """Pass 2: repeat history — apply one physical record unconditionally
    (the page store was reset, so it is rebuilt from genesis)."""
    t = rec["t"]
    if t == "alloc":
        store.install(Page(rec["page"], rec["capacity"]))
    elif t == "dealloc":
        store.remove(rec["page"])
    elif t == "set":
        store.get(rec["page"]).slots[rec["slot"]] = rec["value"]
    else:  # del
        store.get(rec["page"]).slots.pop(rec["slot"], None)
    return 1


def _redo_durable(rec: dict, store) -> int:
    """Pass 2, durable flavor: conditional redo of one physical record.

    History is repeated only where the durable page images have not already
    witnessed it: a record is applied iff its LSN exceeds the target page's
    pageLSN.  Skipping a ``set``/``del`` whose page is *absent* is sound —
    absence means a later ``dealloc`` (≥ redo start) removed the page, and
    that dealloc's own conditional check already ran or will run.
    """
    t = rec["t"]
    page_id, lsn = rec["page"], rec["lsn"]
    page_lsn = store.page_lsn(page_id)
    if t == "alloc":
        if page_lsn is not None and page_lsn >= lsn:
            return 0
        store.install(Page(page_id, rec["capacity"]))
        store.note_write(page_id, lsn)
    elif t == "dealloc":
        if page_lsn is None or page_lsn >= lsn:
            return 0
        store.remove(page_id)
    else:
        if page_lsn is None or page_lsn >= lsn:
            return 0
        page = store.get(page_id)
        if t == "set":
            page.slots[rec["slot"]] = rec["value"]
        else:  # del
            page.slots.pop(rec["slot"], None)
        store.note_write(page_id, lsn)
    return 1


def _durable_redo_start(ckpt: dict, tail: list[dict]) -> int:
    """Where conditional redo must begin: min(recLSN) over the dirty-page
    table reconstructed from the checkpoint's DPT plus the log ``tail``
    (the records after the checkpoint)."""
    dpt = dict(ckpt["dpt"])
    for rec in tail:
        if rec["t"] in PHYSICAL_TYPES and rec["page"] not in dpt:
            dpt[rec["page"]] = rec["lsn"]
    return min(dpt.values()) if dpt else ckpt["lsn"] + 1


def _revert_record(db: "ObjectDatabase", rec: dict) -> None:
    """Cancel one interrupted rollback step with its own before-image."""
    txn = rec["txn"]
    if rec["t"] == "set" or rec["t"] == "del":
        entry = UndoRecord(
            page_id=rec["page"],
            slot=rec["slot"],
            had_slot=rec["had"],
            before=rec["before"],
            after=rec["value"] if rec["t"] == "set" else DELETED,
        )
        db.apply_physical(txn, entry)
    elif rec["t"] == "dealloc":
        # Bring the page back exactly as the dealloc snapshot saw it.
        db.restore_page(txn, rec["page"], rec["capacity"], dict(rec["slots"]))
    else:  # alloc mid-rollback: take it away again
        db.apply_physical(txn, PageAllocationRecord(rec["page"]))


def recover(
    wal: WriteAheadLog,
    db: "ObjectDatabase",
    *,
    store=None,
    faults: "FaultPlan | None" = None,
    skip_compensation: bool = False,
) -> RecoveryReport:
    """Rebuild ``db``'s state from the durable log and roll back losers.

    ``db`` must be a freshly materialized database whose objects were
    created by the same deterministic bootstrap as the crashed instance
    (recovery needs the object directory to re-send compensating methods).
    With the in-memory backend its page store is discarded and rebuilt from
    genesis; with a durable ``store`` (or a durable ``db.store``), analysis
    resumes from the last complete fuzzy checkpoint's transaction table and
    redo is *conditional* from min(recLSN) — pages whose images already
    witnessed a record (pageLSN ≥ LSN) are skipped, so recovery cost tracks
    the WAL tail, not all history.  So does its memory: recovery copies no
    log, reads only ``records[min(redo_start, ckpt.lsn + 1):]`` after a
    checkpoint (each record once) and streams the log once from genesis —
    over a :class:`LogFile` (a file-mode or :meth:`WriteAheadLog.load`-ed
    log) that is the number of records parsed from disk.  The log is
    reopened and recovery appends its own records to it, so crashing
    *during* recovery (via ``faults``) and calling :func:`recover` again
    converges to the same state.
    ``skip_compensation`` is the ablation hook: a recovery that "forgets"
    compensation replay, which the crash oracle must catch.
    """
    wal.reopen()
    if store is not None:
        db.store = store
    db.wal = wal
    wal.bind(db.bus, db.metrics)
    durable = db.store.durable
    if durable:
        db.store.connect(
            force_log=wal.force_up_to,
            fault_hit=db._fault_hit,
            metrics=db.metrics,
        )
    # No copy of the log: recovery reads only the records it replays (a
    # file-mode log parses them from disk on access), and its own appends
    # land after the count taken here.
    records = wal.records
    report = RecoveryReport(records=len(records))
    redo = _redo_durable if durable else _redo

    ckpt = wal.durable_checkpoint() if durable else None
    if ckpt is not None:
        # Analysis folds in the tail after the checkpoint; redo starts at
        # min(recLSN), which may reach back before it.  Each record from
        # the earlier of the two is parsed once.
        state = AnalysisState.from_dict(ckpt["att"])
        tail_start = ckpt["lsn"] + 1
        replay = records[tail_start:]
        for rec in replay:
            state.observe(rec)
        redo_start = _durable_redo_start(ckpt, replay)
        if redo_start < tail_start:
            replay = records[redo_start:tail_start] + replay
        report.redo_applied = sum(
            redo(rec, db.store) for rec in replay if rec["t"] in PHYSICAL_TYPES
        )
    else:
        # From genesis: one streamed pass analyses and redoes each record.
        state = AnalysisState()
        if not durable:
            db.store.reset()
        for rec in records:
            state.observe(rec)
            if rec["t"] in PHYSICAL_TYPES:
                report.redo_applied += redo(rec, db.store)
    if durable:
        # Adopt the state as the WAL's running analysis *before* the undo
        # loop: recovery's own appends (undo records, comp-done, abort-done)
        # must be observed, or a post-recovery checkpoint's transaction
        # table would still carry the losers it just finished unwinding.
        wal.analysis = state
    losers = state.losers()
    journals = state.journals
    # Keep winners in commit-record order — the crash oracle replays them
    # serially in exactly this order.
    report.winners = list(state.winner_order)
    report.finished_aborts = sorted(state.aborted)
    report.losers = list(losers)

    # One backward pass over everything that must be physically or
    # semantically unwound: the losers' surviving journal entries AND the
    # window records of interrupted rollback steps, in reverse *global*
    # LSN order.  Interleaving the two is essential — a before-image only
    # restores correctly once every later write to its slot has itself
    # been unwound (e.g. another loser's frame wrote a page after a
    # half-finished compensation touched it).
    merged = [
        (lsn, txn, entry)
        for txn in losers
        for lsn, entry in journals.get(txn, {}).items()
    ]
    merged.extend(
        (rec["lsn"], txn, rec)
        for txn in losers
        for rec in state.windows.get(txn, ())
    )
    merged.sort(key=lambda item: item[0], reverse=True)
    remaining = {txn: sum(1 for _, t, _ in merged if t == txn) for txn in losers}
    contexts: dict[str, Any] = {}
    for lsn, txn, entry in merged:
        if faults is not None:
            try:
                faults.hit("recovery.step")
            except SimulatedCrash:
                wal.crash()
                db.store.crash()
                raise
        if isinstance(entry, dict):
            _revert_record(db, entry)
            report.reverted += 1
        elif isinstance(entry, CompensationRecord):
            if skip_compensation:
                report.compensations_skipped += 1
            else:
                ctx = contexts.get(txn)
                if ctx is None:
                    # Reuse the loser's own label so the compensating
                    # sends' physical records attribute to it in the log.
                    ctx = db.begin(txn, log=False)
                    ctx.runtime_data["compensating"] = True
                    contexts[txn] = ctx
                db.send(ctx, entry.oid, entry.method, *entry.args)
                wal.append({"t": "comp-done", "txn": txn, "target": lsn})
                wal.sync()
                report.compensations_replayed += 1
        else:
            db.apply_physical(txn, entry)
            report.undone += 1
        remaining[txn] -= 1
        if remaining[txn] == 0:
            wal.append({"t": "abort-done", "txn": txn})
    # Losers with nothing to unwind still need a durable verdict.
    for txn in losers:
        if remaining.get(txn, 0) == 0 and not any(
            t == txn for _, t, _ in merged
        ):
            wal.append({"t": "abort-done", "txn": txn})
    wal.sync()

    # Retire the recovery contexts: their journals were bookkeeping only
    # (every effect is already durable), so clear them before release.
    for ctx in contexts.values():
        ctx.root_frame.log.entries.clear()
        db.scheduler.abort(ctx)
        ctx.status = TxnStatus.ABORTED

    if durable and not wal.crashed:
        # Make the recovered state durable and fence it with a fresh
        # checkpoint: a second recover() over this log is then a no-op
        # redo (digest-identical), and the next crash's redo tail starts
        # here rather than at the pre-crash checkpoint.
        db.store.flush_dirty()
        db.checkpoint()
    return report


# ---------------------------------------------------------------------------
# state digests (determinism / idempotence checks)
# ---------------------------------------------------------------------------


def store_snapshot(store) -> dict:
    """A plain-data snapshot of every page (capacity + slots)."""
    return {
        page_id: {
            "capacity": store.get(page_id).capacity,
            "slots": dict(store.get(page_id).slots),
        }
        for page_id in store.page_ids
    }


def store_digest(store) -> str:
    """A deterministic digest of the page store (byte-identity witness)."""
    canonical = repr(
        sorted(
            (
                page_id,
                snap["capacity"],
                sorted(snap["slots"].items(), key=lambda kv: repr(kv[0])),
            )
            for page_id, snap in store_snapshot(store).items()
        )
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def verify_log(records: Iterable[dict]) -> None:
    """Sanity-check a record stream (used by the CLI before recovery).

    Streams: a file-mode log's records are parsed one at a time."""
    for i, rec in enumerate(records):
        if "t" not in rec:
            raise DatabaseError(f"WAL record {i} has no type: {rec!r}")
        if rec.get("lsn") != i:
            raise DatabaseError(
                f"WAL record {i} carries lsn {rec.get('lsn')!r} — "
                "stream is reordered or truncated mid-prefix"
            )
