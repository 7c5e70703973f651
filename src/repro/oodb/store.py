"""The file-backed page store: an append-only page-image log behind an index.

This is the durable half of the storage engine.  :class:`PageImageStore`
is the raw file layer — every page image the buffer pool writes back is
one record appended to ``pages/images.log`` — and
:class:`FileBackedPageStore` is the :class:`~repro.oodb.pages.PageStore`
implementation the database actually talks to, mediating every access
through a bounded :class:`~repro.oodb.bufferpool.BufferPool`.

Record format
-------------

``RPG2 | crc32 uint32 | kind uint8 | page_lsn int64 | capacity uint32 |
id length uint16 | payload length uint32`` followed by the page id (UTF-8)
and the JSON payload (the slots as ``[[k, v], ...]`` — pairs, not an
object, so non-string slot keys survive the round trip).  ``kind`` is 1
for an image and 0 for a tombstone (a deallocated page; no payload).
``page_lsn`` is the highest WAL LSN whose effect the image contains: the
pageLSN that drives conditional redo and the WAL rule.  The checksum
covers every byte after itself — header fields, id and payload — because
the open-time scan trusts the lengths to find the next record.

An in-memory index ``page_id -> (offset, length)`` names the newest image
of every live page: a write-back is one ``os.write`` on a descriptor
opened once, a read one ``os.pread`` (checksum verified every time).

Torn tail
---------

Opening the store scans the log front to back; the newest valid record
per page wins.  A record that fails its check *and* reaches end of file is
a torn append (a crash mid-write, exercised by the ``writeback.torn``
fault site): it is cut off, and the page's previous image — still in the
log, earlier — is the one served.  A record that fails its check with
more log behind it is corruption: the open raises :class:`PageError` and
truncates nothing.

Compaction
----------

Superseded images and tombstones are dead bytes.  At checkpoint time only
(:meth:`FileBackedPageStore.flush_dirty`), when dead bytes >= live bytes,
the live images are rewritten to ``images.log.tmp`` and published with one
``os.replace``; a crash before the rename leaves a stray ``.tmp`` that the
next open removes.  The file is therefore bounded by twice the live data
plus one checkpoint interval of write-backs.

None of this touches the WAL rule: the buffer pool still forces the log up
to a frame's ``page_lsn`` before it hands the frame to :meth:`write_page`,
so no image in this file outruns the records that produced it.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

from repro.errors import PageError, SimulatedCrash
from repro.oodb.bufferpool import BufferPool
from repro.oodb.pages import DEFAULT_PAGE_CAPACITY, Page, PageStore

_MAGIC = b"RPG2"
_PREFIX = struct.Struct("<4sI")  # magic, crc32 of everything after it
#: kind, page_lsn (int64), capacity, id length, payload length
_FIELDS = struct.Struct("<BqIHI")
_HEADER_SIZE = _PREFIX.size + _FIELDS.size
_IMAGE, _TOMBSTONE = 1, 0
_LOG_NAME = "images.log"
_META_NAME = "directory.json"


def _pack(
    kind: int, page_id: str, page_lsn: int, capacity: int, payload: bytes
) -> bytes:
    ident = page_id.encode()
    body = (
        _FIELDS.pack(kind, page_lsn, capacity, len(ident), len(payload))
        + ident
        + payload
    )
    return _PREFIX.pack(_MAGIC, zlib.crc32(body)) + body


class PageImageStore:
    """The raw on-disk layer: the image log + the store's meta directory."""

    def __init__(self, root: str):
        self.root = root
        self.pages_dir = os.path.join(root, "pages")
        os.makedirs(self.pages_dir, exist_ok=True)
        for name in os.listdir(self.pages_dir):
            subdir = os.path.join(self.pages_dir, name)
            if os.path.isdir(subdir) and any(
                image.endswith(".pg") for image in os.listdir(subdir)
            ):
                raise PageError(
                    f"{self.pages_dir} holds page images in the old "
                    f"one-file-per-page layout ({name}/*.pg), which this "
                    "version does not read: recover the data dir with the "
                    "version that wrote it, or use a fresh directory"
                )
        self._meta_path = os.path.join(root, _META_NAME)
        #: the counter as the meta file holds it (None: no file yet)
        self._meta_on_disk: int | None = None
        if os.path.exists(self._meta_path):
            with open(self._meta_path) as fh:
                self._meta_on_disk = json.load(fh).get("next_page_number", 0)
        self.next_page_number = self._meta_on_disk or 0
        self._log_path = os.path.join(self.pages_dir, _LOG_NAME)
        # A stray .tmp is a compaction that died before its rename; the
        # log it was copying from is still whole.
        if os.path.exists(self._log_path + ".tmp"):
            os.remove(self._log_path + ".tmp")
        #: set by a torn append: the tail of the file is no longer ours
        self._torn = False
        self._fd: int | None = os.open(
            self._log_path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            self._index, self._end = self._scan()
        except BaseException:
            self.close()
            raise

    def _scan(self) -> tuple[dict[str, tuple[int, int]], int]:
        """Rebuild the index from the log, cutting off a torn tail."""
        size = os.fstat(self._fd).st_size
        data = memoryview(os.pread(self._fd, size, 0))
        index: dict[str, tuple[int, int]] = {}
        pos = 0
        while pos < size:
            end = size  # a header cut short reaches end of file as it is
            valid = False
            if size - pos >= _HEADER_SIZE:
                magic, crc = _PREFIX.unpack_from(data, pos)
                kind, _, _, id_len, payload_len = _FIELDS.unpack_from(
                    data, pos + _PREFIX.size
                )
                end = pos + _HEADER_SIZE + id_len + payload_len
                valid = (
                    magic == _MAGIC
                    and end <= size
                    and zlib.crc32(data[pos + _PREFIX.size : end]) == crc
                )
            if not valid:
                if end < size:
                    raise PageError(
                        f"corrupt page-image log {self._log_path}: the "
                        f"record at offset {pos} fails its check with "
                        f"{size - end} bytes of log behind it"
                    )
                os.ftruncate(self._fd, pos)
                break
            page_id = str(data[pos + _HEADER_SIZE : end - payload_len], "utf-8")
            if kind == _IMAGE:
                index[page_id] = (pos, end - pos)
            else:
                index.pop(page_id, None)
            pos = end
        return index, pos

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    # -- meta -----------------------------------------------------------------

    def write_meta(self, next_page_number: int | None = None) -> None:
        if next_page_number is not None:
            self.next_page_number = max(self.next_page_number, next_page_number)
        if self.next_page_number == self._meta_on_disk:
            return
        tmp = self._meta_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"next_page_number": self.next_page_number}, fh)
        os.replace(tmp, self._meta_path)
        self._meta_on_disk = self.next_page_number

    # -- images ---------------------------------------------------------------

    def has(self, page_id: str) -> bool:
        return page_id in self._index

    @property
    def page_ids(self) -> list[str]:
        return sorted(self._index)

    def _fetch(self, page_id: str) -> bytes:
        """The newest record of ``page_id``, checked."""
        where = self._index.get(page_id)
        if where is None:
            raise PageError(f"unknown page {page_id}")
        offset, length = where
        if self._fd is not None:
            record = os.pread(self._fd, length, offset)
        else:
            # A closed store still answers reads (a stopped service's pages
            # are digested after shutdown) but holds no descriptor.
            fd = os.open(self._log_path, os.O_RDONLY)
            try:
                record = os.pread(fd, length, offset)
            finally:
                os.close(fd)
        ident = page_id.encode()
        if (
            len(record) != length
            or _PREFIX.unpack_from(record)
            != (_MAGIC, zlib.crc32(record[_PREFIX.size :]))
            or record[_HEADER_SIZE : _HEADER_SIZE + len(ident)] != ident
        ):
            raise PageError(
                f"corrupt page image {page_id} at offset {offset} of "
                f"{self._log_path}: checksum mismatch"
            )
        return record

    def read_page(self, page_id: str) -> tuple[Page, int]:
        """Load one image; returns ``(page, page_lsn)``."""
        record = self._fetch(page_id)
        _, page_lsn, capacity, id_len, _ = _FIELDS.unpack_from(
            record, _PREFIX.size
        )
        pairs = json.loads(record[_HEADER_SIZE + id_len :])
        slots = {key: value for key, value in pairs}
        return Page(page_id, capacity, slots), page_lsn

    def _writable(self) -> int:
        """The descriptor, for a call that changes the file."""
        if self._fd is None or self._torn:
            raise PageError(
                f"page-image log {self._log_path} is "
                f"{'torn' if self._torn else 'closed'}: it takes no more writes"
            )
        return self._fd

    def _append(self, record: bytes, fault_hit=None) -> int:
        """One ``os.write`` at the end of the log; returns its offset."""
        fd = self._writable()
        if fault_hit is not None:
            try:
                fault_hit("writeback.torn")
            except SimulatedCrash:
                # The crash lands mid-write: half a record reaches the
                # file.  The page's previous image, earlier in the log, is
                # untouched, and this process writes nothing after it.
                self._torn = True
                os.write(fd, record[: len(record) // 2])
                raise
        offset = self._end
        if os.write(fd, record) != len(record):
            self._torn = True
            raise PageError(f"short write to page-image log {self._log_path}")
        self._end = offset + len(record)
        return offset

    def write_page(self, page: Page, page_lsn: int, fault_hit=None) -> None:
        """Append one image (torn-write fault site inside)."""
        record = _pack(
            _IMAGE,
            page.page_id,
            page_lsn,
            page.capacity,
            json.dumps([[k, v] for k, v in page.slots.items()]).encode(),
        )
        self._index[page.page_id] = (
            self._append(record, fault_hit),
            len(record),
        )

    def remove_page(self, page_id: str) -> None:
        if page_id in self._index:
            self._append(_pack(_TOMBSTONE, page_id, 0, 0, b""))
            del self._index[page_id]

    def wipe(self) -> None:
        os.ftruncate(self._writable(), 0)
        self._index.clear()
        self._end = 0

    # -- compaction -----------------------------------------------------------

    @property
    def live_bytes(self) -> int:
        return sum(length for _, length in self._index.values())

    @property
    def dead_bytes(self) -> int:
        return self._end - self.live_bytes

    def compact(self) -> None:
        """Rewrite the log with the live images only, in log order."""
        old = self._writable()
        tmp = self._log_path + ".tmp"
        fd = os.open(
            tmp, os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_TRUNC, 0o644
        )
        try:
            index: dict[str, tuple[int, int]] = {}
            end = 0
            for page_id in sorted(self._index, key=self._index.__getitem__):
                record = self._fetch(page_id)
                os.write(fd, record)
                index[page_id] = (end, len(record))
                end += len(record)
            os.replace(tmp, self._log_path)
        except BaseException:
            os.close(fd)
            raise
        # The new descriptor followed its file through the rename.
        os.close(old)
        self._fd, self._index, self._end = fd, index, end


class FileBackedPageStore(PageStore):
    """A durable :class:`PageStore`: buffer pool over the page-image log.

    Every access goes through the pool; pages not resident are faulted in
    from their image, and dirty pages are written back on eviction (under
    the WAL rule) or by :meth:`flush_dirty` after a checkpoint.
    """

    durable = True

    def __init__(
        self,
        root: str,
        frames: int = 128,
        default_capacity: int = DEFAULT_PAGE_CAPACITY,
        *,
        skip_log_force: bool = False,
    ):
        super().__init__(default_capacity)
        self.disk = PageImageStore(root)
        self.pool = BufferPool(
            self.disk, frames=frames, skip_log_force=skip_log_force
        )
        self._next_page_number = max(
            self._next_page_number, self.disk.next_page_number
        )
        for page_id in self.disk.page_ids:
            self._observe_page_id(page_id)

    # -- PageStore interface ------------------------------------------------

    def allocate(self, page_id: str | None = None, capacity: int | None = None) -> Page:
        if page_id is None:
            self._next_page_number += 1
            page_id = f"Page{self._next_page_number}"
        if page_id in self:
            raise PageError(f"page id {page_id} already allocated")
        page = Page(page_id, capacity or self.default_capacity)
        self.pool.put_new(page)
        return page

    def get(self, page_id: str) -> Page:
        return self.pool.get(page_id)

    def deallocate(self, page_id: str) -> None:
        if page_id not in self:
            raise PageError(f"unknown page {page_id}")
        self.pool.deallocate(page_id)

    def __contains__(self, page_id: str) -> bool:
        return self.pool.contains(page_id)

    def __len__(self) -> int:
        return len(set(self.disk.page_ids) | set(self.pool.frames))

    @property
    def page_ids(self) -> list[str]:
        return sorted(set(self.disk.page_ids) | set(self.pool.frames))

    # -- recovery surface ---------------------------------------------------

    def reset(self) -> None:
        """Drop everything, frames and images (in-memory-style redo only)."""
        self.pool.drop_frames()
        self.disk.wipe()

    def install(self, page: Page) -> None:
        self.pool.install(page)
        self._observe_page_id(page.page_id)

    def remove(self, page_id: str) -> None:
        if page_id in self:
            self.pool.deallocate(page_id)

    # -- durability surface -------------------------------------------------

    def connect(self, *, force_log=None, fault_hit=None, metrics=None) -> None:
        self.pool.connect(
            force_log=force_log, fault_hit=fault_hit, metrics=metrics
        )

    def note_write(self, page_id: str, lsn: int | None) -> None:
        self.pool.note_write(page_id, lsn)

    def dirty_table(self) -> dict[str, int]:
        return self.pool.dirty_table()

    def page_lsn(self, page_id: str) -> int | None:
        return self.pool.page_lsn(page_id)

    def flush_dirty(self) -> int:
        """Checkpoint-time duties: write back every dirty frame, persist
        the id counter if it moved, compact the image log if half of it
        is dead."""
        flushed = self.pool.flush_dirty()
        if not self.pool.dead:
            self.disk.write_meta(self._next_page_number)
            dead = self.disk.dead_bytes
            if dead and dead >= self.disk.live_bytes:
                self.disk.compact()
        return flushed

    def crash(self) -> None:
        self.pool.crash()

    def close(self) -> None:
        if not self.pool.dead:
            self.disk.write_meta(self._next_page_number)
        self.disk.close()
