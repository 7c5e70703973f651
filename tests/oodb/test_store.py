"""Tests for the on-disk page-image log and the file-backed store."""

import builtins
import json
import os
import random

import pytest

from repro.errors import PageError, SimulatedCrash
from repro.oodb.pages import Page
from repro.oodb.store import FileBackedPageStore, PageImageStore


def make_page(page_id="PageA", **slots):
    page = Page(page_id, 16)
    for key, value in slots.items():
        page.write(key, value)
    return page


def log_path(disk):
    return os.path.join(disk.pages_dir, "images.log")


def contents(disk):
    """What the store serves, as a plain ``{page_id: (slots, page_lsn)}``."""
    out = {}
    for page_id in disk.page_ids:
        page, page_lsn = disk.read_page(page_id)
        out[page_id] = (dict(page.slots), page_lsn)
    return out


def flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


class TestPageImageStore:
    def test_round_trip_preserves_slots_and_page_lsn(self, tmp_path):
        disk = PageImageStore(str(tmp_path))
        disk.write_page(make_page(total=7, s1=3), page_lsn=42)
        loaded, page_lsn = disk.read_page("PageA")
        assert page_lsn == 42
        assert loaded.capacity == 16
        assert loaded.read("total") == 7
        assert loaded.read("s1") == 3

    def test_non_string_slot_keys_survive(self, tmp_path):
        disk = PageImageStore(str(tmp_path))
        page = Page("PageK", 16)
        page.write(5, "five")
        disk.write_page(page, page_lsn=1)
        loaded, _ = disk.read_page("PageK")
        assert loaded.read(5) == "five"

    def test_corrupt_image_is_rejected(self, tmp_path):
        disk = PageImageStore(str(tmp_path))
        disk.write_page(make_page(total=1), page_lsn=0)
        offset, length = disk._index["PageA"]
        flip_byte(log_path(disk), offset + length - 1)  # last payload byte
        with pytest.raises(PageError, match="checksum"):
            disk.read_page("PageA")

    def test_model_random_write_remove_compact_reopen(self, tmp_path):
        rng = random.Random(22)
        disk = PageImageStore(str(tmp_path))
        model = {}
        for step in range(400):
            action = rng.choice(
                ["write"] * 6 + ["remove"] * 2 + ["compact", "reopen"]
            )
            page_id = f"Page{rng.randrange(9)}"
            if action == "write":
                slots = {
                    rng.choice(["a", "b", 3, "total"]): rng.randrange(100)
                    for _ in range(rng.randrange(4))
                }
                page = Page(page_id, 16, dict(slots))
                disk.write_page(page, page_lsn=step)
                model[page_id] = (slots, step)
            elif action == "remove":
                disk.remove_page(page_id)
                model.pop(page_id, None)
            elif action == "compact":
                disk.compact()
                assert disk.dead_bytes == 0
            else:
                disk.close()
                disk = PageImageStore(str(tmp_path))
            assert contents(disk) == model, (step, action)
            assert disk.live_bytes + disk.dead_bytes == os.path.getsize(
                log_path(disk)
            )
        disk.close()

    def test_last_record_truncated_at_every_offset(self, tmp_path):
        disk = PageImageStore(str(tmp_path))
        disk.write_page(make_page("PageB", keep=1), page_lsn=1)
        disk.write_page(make_page(total=1), page_lsn=2)
        good = os.path.getsize(log_path(disk))
        disk.write_page(make_page(total=2, more="x" * 20), page_lsn=3)
        disk.close()
        with open(log_path(disk), "rb") as fh:
            whole = fh.read()
        for cut in range(good, len(whole)):
            with open(log_path(disk), "wb") as fh:
                fh.write(whole[:cut])
            reopened = PageImageStore(str(tmp_path))
            # the previous image of the page, and the file cut back to it
            assert contents(reopened) == {
                "PageA": ({"total": 1}, 2),
                "PageB": ({"keep": 1}, 1),
            }, cut
            assert os.path.getsize(log_path(disk)) == good, cut
            reopened.write_page(make_page(total=9), page_lsn=4)
            reopened.close()
            again = PageImageStore(str(tmp_path))
            assert contents(again)["PageA"] == ({"total": 9}, 4), cut
            again.close()

    def test_flipped_byte_in_a_middle_record_refuses_to_open(self, tmp_path):
        disk = PageImageStore(str(tmp_path))
        for n in range(3):
            disk.write_page(make_page(f"Page{n}", total=n), page_lsn=n)
        offset, length = disk._index["Page1"]
        disk.close()
        flip_byte(log_path(disk), offset + length - 1)
        size = os.path.getsize(log_path(disk))
        with pytest.raises(PageError, match=f"offset {offset}"):
            PageImageStore(str(tmp_path))
        assert os.path.getsize(log_path(disk)) == size  # nothing cut

    def test_flipped_length_field_is_caught(self, tmp_path):
        disk = PageImageStore(str(tmp_path))
        for n in range(40):
            disk.write_page(make_page(f"Page{n}", total=n), page_lsn=n)
        offset = disk._index["Page1"][0]
        last_offset = disk._index["Page39"][0]
        disk.close()
        # payload length is the record header's last uint32: bytes 23..26
        flip_byte(log_path(disk), offset + 23)  # claims a record 255 B longer
        with pytest.raises(PageError, match="fails its check"):
            PageImageStore(str(tmp_path))
        flip_byte(log_path(disk), offset + 23)  # restore
        # The same damage in the *last* record reads as a torn tail.
        flip_byte(log_path(disk), last_offset + 23)
        reopened = PageImageStore(str(tmp_path))
        assert "Page39" not in reopened.page_ids
        assert len(reopened.page_ids) == 39
        assert os.path.getsize(log_path(disk)) == last_offset
        reopened.close()

    @pytest.mark.parametrize("stray_tmp", [True, False])
    def test_interrupted_compaction_reopens_to_the_same_index(
        self, tmp_path, monkeypatch, stray_tmp
    ):
        disk = PageImageStore(str(tmp_path))
        for n in range(5):
            disk.write_page(make_page(f"Page{n % 3}", total=n), page_lsn=n)
        disk.remove_page("Page0")
        before = contents(disk)
        if stray_tmp:
            # dies before the rename: the .tmp stays, the log is the old one
            def die(src, dst):
                raise SimulatedCrash("compaction")

            monkeypatch.setattr(os, "replace", die)
            with pytest.raises(SimulatedCrash):
                disk.compact()
            monkeypatch.undo()
            assert os.path.exists(log_path(disk) + ".tmp")
        else:
            # dies right after it: the log is the new one, nothing stray
            disk.compact()
        disk.close()
        reopened = PageImageStore(str(tmp_path))
        assert contents(reopened) == before
        assert os.listdir(reopened.pages_dir) == ["images.log"]
        reopened.close()

    def test_wipe_then_write_then_reopen(self, tmp_path):
        disk = PageImageStore(str(tmp_path))
        for n in range(4):
            disk.write_page(make_page(f"Page{n}", total=n), page_lsn=n)
        disk.wipe()
        assert disk.page_ids == []
        assert os.path.getsize(log_path(disk)) == 0
        disk.write_page(make_page("Page2", total=8), page_lsn=9)
        disk.close()
        reopened = PageImageStore(str(tmp_path))
        assert contents(reopened) == {"Page2": ({"total": 8}, 9)}
        reopened.close()

    def test_old_one_file_per_page_layout_is_refused(self, tmp_path):
        old = tmp_path / "pages" / "3f"
        old.mkdir(parents=True)
        (old / "Page1.pg").write_bytes(b"RPG1" + b"\0" * 20 + b"{}")
        with pytest.raises(PageError, match="old one-file-per-page layout") as err:
            PageImageStore(str(tmp_path))
        assert "fresh directory" in str(err.value)
        assert (old / "Page1.pg").exists()  # refused, not migrated or swept

    def test_hot_path_never_opens_renames_or_makes_directories(
        self, tmp_path, monkeypatch
    ):
        disk = PageImageStore(str(tmp_path))

        def forbidden(*args, **kwargs):
            raise AssertionError(f"hot path touched the namespace: {args}")

        monkeypatch.setattr(os, "replace", forbidden)
        monkeypatch.setattr(os, "makedirs", forbidden)
        monkeypatch.setattr(builtins, "open", forbidden)
        for n in range(100):
            page_id = f"Page{n % 7}"
            disk.write_page(make_page(page_id, total=n), page_lsn=n)
            page, page_lsn = disk.read_page(page_id)
            assert (page.read("total"), page_lsn) == (n, n)
            if n % 5 == 4:
                disk.remove_page(page_id)
                assert not disk.has(page_id)
        monkeypatch.undo()
        disk.close()

    def test_a_torn_append_refuses_further_appends(self, tmp_path):
        disk = PageImageStore(str(tmp_path))
        disk.write_page(make_page(total=1), page_lsn=1)
        good = os.path.getsize(log_path(disk))

        def crash(site):
            assert site == "writeback.torn"
            raise SimulatedCrash(site)

        with pytest.raises(SimulatedCrash):
            disk.write_page(make_page(total=2), page_lsn=2, fault_hit=crash)
        assert os.path.getsize(log_path(disk)) > good  # half a record landed
        with pytest.raises(PageError, match="torn"):
            disk.write_page(make_page(total=3), page_lsn=3)
        with pytest.raises(PageError, match="torn"):
            disk.remove_page("PageA")
        assert disk.read_page("PageA")[0].read("total") == 1
        disk.close()
        reopened = PageImageStore(str(tmp_path))
        assert contents(reopened) == {"PageA": ({"total": 1}, 1)}
        assert os.path.getsize(log_path(disk)) == good
        reopened.close()

    def test_a_closed_store_still_answers_reads(self, tmp_path):
        disk = PageImageStore(str(tmp_path))
        disk.write_page(make_page(total=4), page_lsn=1)
        before = len(os.listdir("/proc/self/fd"))
        disk.close()
        disk.close()
        assert disk.read_page("PageA")[0].read("total") == 4
        assert len(os.listdir("/proc/self/fd")) == before - 1
        with pytest.raises(PageError, match="closed"):
            disk.write_page(make_page(total=5), page_lsn=2)


class TestFileBackedPageStore:
    def test_allocate_get_and_restart(self, tmp_path):
        store = FileBackedPageStore(str(tmp_path), frames=4)
        page = store.allocate()
        page.write("total", 9)
        store.note_write(page.page_id, 3)
        store.flush_dirty()
        store.close()

        reopened = FileBackedPageStore(str(tmp_path), frames=4)
        assert page.page_id in reopened
        assert reopened.get(page.page_id).read("total") == 9
        assert reopened.page_lsn(page.page_id) == 3
        # the meta counter survived: fresh ids never collide with old ones
        fresh = reopened.allocate()
        assert fresh.page_id != page.page_id

    def test_deallocate_removes_the_image(self, tmp_path):
        store = FileBackedPageStore(str(tmp_path), frames=4)
        page = store.allocate("PageZ")
        store.note_write("PageZ", 0)
        store.flush_dirty()
        assert store.disk.has("PageZ")
        store.deallocate("PageZ")
        assert "PageZ" not in store
        assert not store.disk.has("PageZ")
        store.close()
        assert "PageZ" not in FileBackedPageStore(str(tmp_path), frames=4)

    def test_crash_makes_writes_inert_but_reads_fault_in(self, tmp_path):
        store = FileBackedPageStore(str(tmp_path), frames=4)
        page = store.allocate("PageC")
        page.write("total", 5)
        store.note_write("PageC", 1)
        store.flush_dirty()
        store.crash()
        assert store.flush_dirty() == 0
        assert store.get("PageC").read("total") == 5  # from the image
        store.close()
        store.close()  # safe twice, and after crash()

    def test_reopen_never_reissues_a_page_id(self, tmp_path):
        store = FileBackedPageStore(str(tmp_path), frames=4)
        first = store.allocate().page_id
        store.deallocate(first)  # never imaged: only the counter remembers
        store.flush_dirty()
        store.close()
        meta_path = tmp_path / "directory.json"
        meta = json.loads(meta_path.read_text())
        assert meta == {"next_page_number": int(first[len("Page"):])}
        # a meta file from before the field was dropped still loads
        meta_path.write_text(json.dumps({**meta, "default_capacity": 64}))
        reopened = FileBackedPageStore(str(tmp_path), frames=4)
        assert reopened.allocate().page_id != first
        reopened.close()

    def test_checkpoint_that_allocated_nothing_leaves_the_meta_file_alone(
        self, tmp_path
    ):
        store = FileBackedPageStore(str(tmp_path), frames=4)
        page = store.allocate()
        store.note_write(page.page_id, 0)
        store.flush_dirty()
        meta_path = tmp_path / "directory.json"
        os.utime(meta_path, ns=(1, 1))
        page.write("total", 1)
        store.note_write(page.page_id, 1)
        assert store.flush_dirty() == 1
        store.close()
        assert meta_path.stat().st_mtime_ns == 1
        assert sorted(os.listdir(tmp_path)) == ["directory.json", "pages"]

    def test_checkpoints_keep_the_log_within_twice_the_live_bytes(
        self, tmp_path
    ):
        store = FileBackedPageStore(str(tmp_path), frames=4)
        pages = [store.allocate() for _ in range(3)]
        path = os.path.join(store.disk.pages_dir, "images.log")
        for lsn in range(60):
            for page in pages:
                store.get(page.page_id).write("total", lsn)
                store.note_write(page.page_id, lsn)
            store.flush_dirty()
            # dead < live after every checkpoint
            assert os.path.getsize(path) < 2 * store.disk.live_bytes
        assert store.disk.read_page(pages[0].page_id)[1] == 59
        store.close()
