"""A file-mode log keeps its durable prefix on disk.

``WriteAheadLog(path).records`` is a :class:`LogFile`: one byte offset per
synced record, each record parsed when it is read.  These tests pin that
the log holds no record dict once it synced, that the view reads like the
list it replaces, and that recovery of a loaded log parses only the tail
it replays — with the same report and page-store digest as recovery over
the fully parsed log.
"""

import gc
import shutil
import types
from dataclasses import asdict

import pytest

import repro.oodb.wal as wal_module
from repro.faults import FaultPlan
from repro.fuzz.crash import crash_census
from repro.fuzz.driver import execute_cell
from repro.fuzz.generator import GeneratorProfile, generate, host_workload
from repro.oodb.store import FileBackedPageStore
from repro.oodb.wal import (
    LogFile,
    WriteAheadLog,
    recover,
    store_digest,
    verify_log,
)


def _reachable(root, limit: int = 10_000):
    """Every object reachable from ``root`` (modules and types excluded)."""
    seen = {id(root)}
    frontier = [root]
    found = []
    while frontier and len(found) < limit:
        obj = frontier.pop()
        found.append(obj)
        for ref in gc.get_referents(obj):
            if isinstance(ref, (type, types.ModuleType)) or id(ref) in seen:
                continue
            seen.add(id(ref))
            frontier.append(ref)
    return found


def test_file_mode_wal_holds_no_record_dict_after_sync(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "log.wal"))
    for i in range(50):
        wal.append({"t": "set", "txn": "T1", "value": i})
    assert any(
        isinstance(obj, dict) and "lsn" in obj for obj in _reachable(wal)
    )  # the buffer holds them until the sync
    wal.sync()
    assert isinstance(wal.records, LogFile)
    assert not any(
        isinstance(obj, dict) and "lsn" in obj for obj in _reachable(wal)
    )
    assert len(wal) == wal.next_lsn == 50
    assert wal.records[49]["value"] == 49
    wal.close()


def test_log_file_reads_like_a_list(tmp_path):
    path = tmp_path / "log.wal"
    wal = WriteAheadLog(str(path))
    for i in range(6):
        wal.append({"t": "set", "i": i})
        wal.sync()
    wal.close()
    expected = [{"t": "set", "i": i, "lsn": i} for i in range(6)]
    records = wal.records
    assert records == expected and expected == records
    assert records != expected[:-1]
    assert list(records) == expected
    assert records[0] == expected[0] and records[-1] == expected[-1]
    assert records[2:4] == expected[2:4]
    assert records[10:] == []
    with pytest.raises(IndexError):
        records[6]
    # each read is a fresh dict: mutating it does not reach the log
    records[0]["i"] = 99
    assert records[0]["i"] == 0


def test_loaded_log_keeps_recovery_appends_in_memory(tmp_path):
    path = tmp_path / "log.wal"
    wal = WriteAheadLog(str(path))
    wal.append({"t": "begin", "txn": "T"})
    wal.sync()
    wal.close()
    before = path.read_bytes()
    loaded = WriteAheadLog.load(str(path))
    assert loaded.path is None
    loaded.append({"t": "abort-done", "txn": "T"})
    loaded.sync()
    assert path.read_bytes() == before
    assert [r["t"] for r in loaded] == ["begin", "abort-done"]
    assert loaded.records[1] == {"t": "abort-done", "txn": "T", "lsn": 1}
    verify_log(loaded.records)


def test_load_parses_only_the_last_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "log.wal"
    wal = WriteAheadLog(str(path))
    for n in range(3):
        wal.append({"t": "set", "value": "ckpt-end"})  # a decoy line
        wal.append({"t": "ckpt-end", "lsn_no": n, "att": {}, "dpt": {}})
    wal.append({"t": "set", "value": "ckpt-end"})
    wal.sync()
    wal.close()
    parsed = []
    real = wal_module._parse
    monkeypatch.setattr(
        wal_module, "_parse", lambda line: parsed.append(line) or real(line)
    )
    loaded = WriteAheadLog.load(str(path))
    assert loaded.durable_checkpoint()["lsn_no"] == 2
    assert len(parsed) == 2  # the trailing decoy, then the checkpoint
    assert len(loaded) == 7


def _crashed_data_dir(seed: int, root):
    """A data dir left by a durable cell crashed two thirds in."""
    spec = generate(seed, GeneratorProfile())
    census = crash_census(spec, "open-nested-oo")
    plan = FaultPlan.crash_plan(
        "page-write.after", 2 * census["page-write.after"] // 3
    )
    live = root / "live"
    live.mkdir()
    wal = WriteAheadLog(str(live / "wal.jsonl"))
    store = FileBackedPageStore(
        str(live), frames=2, default_capacity=spec.page_capacity
    )
    try:
        result = execute_cell(
            spec, "open-nested-oo", wal=wal, store=store, checkpoint_every=16,
            faults=plan,
        )
    finally:
        wal.close()
        store.close()
    assert result.crashed
    return spec, live


def _recover_dir(spec, data_dir, wal):
    store = FileBackedPageStore(
        str(data_dir), frames=2, default_capacity=spec.page_capacity
    )
    try:
        db, _, _ = host_workload(spec)
        report = recover(wal, db, store=store)
        return report, store_digest(db.store)
    finally:
        store.close()


@pytest.mark.parametrize("seed", [0, 2, 4, 7])
def test_recovery_of_a_loaded_log_parses_only_its_tail(
    seed, tmp_path, monkeypatch
):
    spec, live = _crashed_data_dir(seed, tmp_path)
    full = list(WriteAheadLog.load(str(live / "wal.jsonl")))
    ckpt = [r for r in full if r["t"] == "ckpt-end"][-1]
    tail_start = ckpt["lsn"] + 1
    redo_start = wal_module._durable_redo_start(ckpt, full[tail_start:])
    replayed = len(full) - min(redo_start, tail_start)
    assert replayed < len(full) // 2  # the checkpoint spares most of it

    shutil.copytree(live, tmp_path / "a")
    shutil.copytree(live, tmp_path / "b")
    expected = _recover_dir(
        spec, tmp_path / "a", WriteAheadLog.from_records(full)
    )

    parsed = []
    real = wal_module._parse
    monkeypatch.setattr(
        wal_module, "_parse", lambda line: parsed.append(line) or real(line)
    )
    loaded = WriteAheadLog.load(str(tmp_path / "b" / "wal.jsonl"))
    report, digest = _recover_dir(spec, tmp_path / "b", loaded)
    assert (asdict(report), digest) == (asdict(expected[0]), expected[1])
    assert report.losers  # the crash left work to unwind
    assert len(parsed) <= replayed + 1


def test_a_run_whose_attempts_keep_aborting_still_checkpoints(tmp_path):
    """Seed 5 commits nothing before its crash: a checkpoint asked only
    after commit records would never come, and recovery would replay the
    log from genesis.  Asked after every ``abort-done`` too, the log holds
    one, and recovery from it keeps the winners and the page images that
    recovery from genesis gives."""
    spec, live = _crashed_data_dir(5, tmp_path)
    full = list(WriteAheadLog.load(str(live / "wal.jsonl")))
    assert any(record["t"] == "ckpt-end" for record in full)
    shutil.copytree(live, tmp_path / "genesis")
    from_genesis = WriteAheadLog.from_records(
        [r for r in full if not r["t"].startswith("ckpt-")]
    )
    expected, expected_digest = _recover_dir(
        spec, tmp_path / "genesis", from_genesis
    )
    report, digest = _recover_dir(
        spec, live, WriteAheadLog.load(str(live / "wal.jsonl"))
    )
    assert (report.winners, digest) == (expected.winners, expected_digest)
    assert report.losers == expected.losers
