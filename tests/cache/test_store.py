"""Tiered memo store: LRU discipline, atomicity, corruption tolerance."""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading

import pytest

from repro.cache import MappingCache
from repro.cache import store as store_mod
from repro.cache.store import DiskStore, MemoryStore, TieredStore


# ---------------------------------------------------------------------------
# MemoryStore
# ---------------------------------------------------------------------------
def test_memory_roundtrip_and_miss():
    store = MemoryStore(4)
    assert store.get("k") is None
    store.put("k", {"v": 1})
    assert store.get("k") == {"v": 1}
    store.invalidate("k")
    assert store.get("k") is None


def test_memory_eviction_is_least_recently_used():
    store = MemoryStore(2)
    store.put("a", {"v": 1})
    store.put("b", {"v": 2})
    store.get("a")  # freshen a, making b the LRU entry
    store.put("c", {"v": 3})
    assert store.get("b") is None
    assert store.get("a") == {"v": 1}
    assert store.get("c") == {"v": 3}
    assert len(store) == 2


def test_memory_rejects_useless_capacity():
    with pytest.raises(ValueError, match="capacity"):
        MemoryStore(0)


# ---------------------------------------------------------------------------
# DiskStore
# ---------------------------------------------------------------------------
def test_disk_roundtrip(tmp_path):
    store = DiskStore(tmp_path / "c")
    store.put("k", {"v": 1})
    assert store.get("k") == {"v": 1}
    # One JSON file per key, valid on its own.
    [path] = (tmp_path / "c").glob("*.json")
    assert json.loads(path.read_text()) == {"v": 1}


def test_disk_corrupt_entry_reads_as_miss_and_is_dropped(tmp_path):
    store = DiskStore(tmp_path / "c")
    store.put("k", {"v": 1})
    path = store._path("k")
    path.write_text(path.read_text()[:5])  # torn write
    assert store.get("k") is None
    assert not path.exists()


def test_disk_non_dict_entry_reads_as_miss(tmp_path):
    store = DiskStore(tmp_path / "c")
    store._path("k").write_text("[1, 2, 3]")
    assert store.get("k") is None


def test_disk_eviction_trims_oldest_first(tmp_path):
    pad = "x" * 200
    store = DiskStore(tmp_path / "c", max_bytes=500)
    store.put("old", {"pad": pad})
    store.put("mid", {"pad": pad})
    # Backdate so mtime order is unambiguous regardless of clock
    # granularity.
    os.utime(store._path("old"), (1, 1))
    os.utime(store._path("mid"), (2, 2))
    store.put("new", {"pad": pad})  # 3 * ~215 bytes > 500 -> evict
    assert store.get("old") is None
    assert store.get("mid") is not None
    assert store.get("new") is not None


def test_disk_clear_and_stats(tmp_path):
    store = DiskStore(tmp_path / "c")
    store.put("a", {"v": 1})
    store.put("b", {"v": 2})
    stats = store.stats()
    assert stats["entries"] == 2
    assert stats["bytes"] > 0
    assert stats["directory"] == str(tmp_path / "c")
    assert store.clear() == 2
    assert len(store) == 0
    assert store.get("a") is None


def test_disk_skips_other_writers_temp_files(tmp_path):
    store = DiskStore(tmp_path / "c", max_bytes=300)
    # A sibling process's half-written entry, as tempfile names it.
    tmp = tmp_path / "c" / ".tmp-abc123.json"
    tmp.write_text('{"pad": "' + "x" * 400)
    store.put("k", {"v": 1})
    stats = store.stats()
    assert stats["entries"] == len(store) == 1
    assert stats["bytes"] == store._path("k").stat().st_size
    store.put("big", {"pad": "x" * 400})  # over the cap: trims both
    assert len(store) == 0
    store.put("k", {"v": 1})
    assert store.clear() == 1
    assert tmp.exists()  # neither the trim nor clear() touched it


# ---------------------------------------------------------------------------
# DiskStore running byte total
# ---------------------------------------------------------------------------
def _tracked(store: DiskStore) -> int | None:
    return store_mod._DIR_BYTES.get(store._dir_id)


def _on_disk(store: DiskStore) -> int:
    return store.stats()["bytes"]


def test_disk_puts_under_the_cap_scan_the_directory_once(
    tmp_path, monkeypatch
):
    scans = []
    entries = DiskStore._entries

    def counting(self):
        scans.append(self.root)
        return entries(self)

    monkeypatch.setattr(DiskStore, "_entries", counting)
    directory = tmp_path / "c"
    # 50 batches of 10 puts, each through the fresh MappingCache a
    # pool worker builds per batch.
    for batch in range(50):
        cache = MappingCache(directory)
        for i in range(10):
            cache.store.put(f"k{batch}-{i}", {"v": i, "pad": "x" * 100})
    assert len(scans) <= 1
    monkeypatch.setattr(DiskStore, "_entries", entries)
    store = DiskStore(directory)
    assert len(store) == 500
    assert _tracked(store) == _on_disk(store)


def test_disk_overwrite_does_not_double_count(tmp_path):
    store = DiskStore(tmp_path / "c")
    store.put("seed", {"v": 0})
    for pad in (10, 300, 50, 50):
        store.put("k", {"pad": "x" * pad})
        assert _tracked(store) == _on_disk(store)


def test_disk_total_stays_conservative_after_invalidate_and_clear(
    tmp_path,
):
    store = DiskStore(tmp_path / "c")
    store.put("a", {"v": 1})
    store.put("b", {"v": 2})
    store.invalidate("a")
    assert _tracked(store) >= _on_disk(store)
    store.clear()
    assert _tracked(store) is None  # forgotten: the next put rescans
    store.put("c", {"v": 3})
    assert _tracked(store) == _on_disk(store)


def test_disk_trim_resets_the_total_to_what_remains(tmp_path):
    store = DiskStore(tmp_path / "c", max_bytes=1000)
    for i in range(20):
        store.put(f"k{i}", {"pad": "x" * 200})
        assert _on_disk(store) <= 1000
        assert _tracked(store) == _on_disk(store)


def test_threaded_puts_keep_the_total_exact(tmp_path):
    store = DiskStore(tmp_path / "c")
    store.put("seed", {"v": 0})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(
                target=lambda t=t: [
                    store.put(f"{t}-{i}", {"v": i}) for i in range(100)
                ]
            )
            for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(store) == 401
    assert _tracked(store) == _on_disk(store)


def _write_many(directory, cap, tag, barrier):
    store = DiskStore(directory, max_bytes=cap)
    barrier.wait()
    for i in range(60):
        store.put(f"{tag}{i}", {"pad": "x" * 150})


@pytest.mark.parametrize("writers", [2, 3])
def test_writer_processes_stay_within_writers_times_the_cap(
    tmp_path, writers
):
    cap = 1200
    directory = tmp_path / "c"
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(writers)
    procs = [
        ctx.Process(target=_write_many, args=(directory, cap, t, barrier))
        for t in "pqr"[:writers]
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(60)
        assert proc.exitcode == 0
    store = DiskStore(directory, max_bytes=cap)
    assert 0 < _on_disk(store) <= writers * cap


# ---------------------------------------------------------------------------
# TieredStore
# ---------------------------------------------------------------------------
def test_tiered_disk_hits_promote_to_memory(tmp_path):
    disk = DiskStore(tmp_path / "c")
    disk.put("k", {"v": 1})
    tiered = TieredStore(MemoryStore(4), DiskStore(tmp_path / "c"))
    assert tiered.get("k") == {"v": 1}
    assert tiered.memory.get("k") == {"v": 1}
    # A second hit no longer needs the disk at all.
    tiered.disk.invalidate("k")
    assert tiered.get("k") == {"v": 1}


def test_tiered_put_writes_through_and_invalidate_clears_both(tmp_path):
    tiered = TieredStore(MemoryStore(4), DiskStore(tmp_path / "c"))
    tiered.put("k", {"v": 1})
    assert tiered.memory.get("k") == {"v": 1}
    assert tiered.disk.get("k") == {"v": 1}
    tiered.invalidate("k")
    assert tiered.memory.get("k") is None
    assert tiered.disk.get("k") is None


def test_tiered_without_disk_is_memory_only():
    tiered = TieredStore(MemoryStore(4), None)
    tiered.put("k", {"v": 1})
    assert tiered.get("k") == {"v": 1}
    tiered.clear()
    assert tiered.get("k") is None
