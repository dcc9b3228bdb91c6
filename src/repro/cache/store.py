"""Tiered memo store: in-process LRU over an optional disk directory.

Entries are the plain-JSON documents of :mod:`repro.core.serialize`,
relabeled into canonical node-id space by the cache layer before they
get here.  Two tiers:

* :class:`MemoryStore` — a bounded LRU dict.  Hot entries cost one
  dict lookup; eviction is strictly least-recently-used.
* :class:`DiskStore` — one JSON file per key under a root directory.
  Writes go through a temp file + :func:`os.replace` so readers (and
  concurrent ``pmap`` workers sharing the directory) never observe a
  half-written entry.  Reads are corruption-tolerant: unreadable or
  non-JSON files read as ``None`` and are unlinked best-effort.
  Eviction trims oldest-modified entries once the directory exceeds
  its byte cap.  Each process keeps a running byte total per
  directory, so a write under the cap costs O(1): the directory is
  scanned once to seed the total and again only when it crosses the
  cap.

Neither tier interprets the documents: fingerprint verification and
re-validation against the live problem happen one layer up, in
:class:`repro.cache.MappingCache`.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

__all__ = ["DiskStore", "MemoryStore", "TieredStore"]

#: Default byte cap of a disk store directory.
DEFAULT_DISK_BYTES = 64 * 1024 * 1024

#: Default entry cap of the in-process LRU.
DEFAULT_MEMORY_ENTRIES = 256

#: Name prefix of a writer's in-flight temp file; never an entry.
_TMP_PREFIX = ".tmp-"

#: Running byte total of each disk directory this process writes to,
#: by resolved path: what its last scan found plus this process's own
#: writes since.  Kept per process rather than per DiskStore, since
#: pool workers build a fresh MappingCache (and so a fresh DiskStore)
#: for every batch.  A missing directory is seeded by its next put.
_DIR_BYTES: dict[str, int] = {}
_DIR_BYTES_LOCK = threading.Lock()


class MemoryStore:
    """A bounded in-process LRU of cache documents."""

    def __init__(self, capacity: int = DEFAULT_MEMORY_ENTRIES) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()

    def get(self, key: str) -> dict[str, Any] | None:
        doc = self._entries.get(key)
        if doc is not None:
            self._entries.move_to_end(key)
        return doc

    def put(self, key: str, doc: dict[str, Any]) -> None:
        self._entries[key] = doc
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate(self, key: str) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[str]:
        return list(self._entries)


class DiskStore:
    """A directory of JSON cache entries with atomic writes.

    Safe to share between processes: writes are temp-file + rename,
    reads tolerate missing/corrupt files, and eviction races degrade
    to best-effort deletes.

    The byte cap is enforced against a per-process running total
    (:data:`_DIR_BYTES`): the first put scans the directory, later
    puts add their size change, and only a total over ``max_bytes``
    triggers the scan-and-trim, which resets the total to what the
    scan left.  With one writing process the directory never exceeds
    ``max_bytes`` after ``put`` returns.  With W processes writing one
    directory each counts only its own writes since its last scan, so
    the directory stays within W x ``max_bytes``.  A total that is too
    high (another process trimmed, or this one invalidated an entry)
    only brings the next scan forward.
    """

    def __init__(
        self, root: str | Path, max_bytes: int = DEFAULT_DISK_BYTES
    ) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.root.mkdir(parents=True, exist_ok=True)
        self._dir_id = os.path.realpath(self.root)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            doc = json.loads(text)
        except ValueError:
            # Torn or corrupted entry (e.g. a crashed writer on a
            # filesystem without atomic rename): drop it and miss.
            self.invalidate(key)
            return None
        if not isinstance(doc, dict):
            self.invalidate(key)
            return None
        return doc

    def put(self, key: str, doc: dict[str, Any]) -> None:
        path = self._path(key)
        blob = json.dumps(doc, sort_keys=True).encode()
        try:
            replaced = path.stat().st_size
        except OSError:
            replaced = 0
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(
                prefix=_TMP_PREFIX, suffix=".json", dir=str(self.root)
            )
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            # The rename leaves the entry with the newest mtime, which
            # is all oldest-first eviction needs.
            os.replace(tmp, path)
        except OSError:
            # A full or read-only disk must never fail the mapping
            # call; the entry is simply not persisted.
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            return
        with _DIR_BYTES_LOCK:
            total = _DIR_BYTES.get(self._dir_id)
            if total is not None:
                total += len(blob) - replaced
                _DIR_BYTES[self._dir_id] = total
        # The first put seeds the total; a put past the cap trims.
        if total is None or total > self.max_bytes:
            self._evict()

    def invalidate(self, key: str) -> None:
        # The running total keeps the removed bytes: too high is safe.
        try:
            self._path(key).unlink()
        except OSError:
            pass

    def _entries(self) -> list[tuple[float, int, str]]:
        """(mtime, size, path) of every entry, oldest first.

        Other writers' in-flight temp files are not entries: counting
        them would report half-written files, and deleting one would
        fail its writer's rename and silently drop that entry.
        """
        out = []
        try:
            with os.scandir(self.root) as it:
                for entry in it:
                    name = entry.name
                    if (not name.endswith(".json")
                            or name.startswith(_TMP_PREFIX)):
                        continue
                    try:
                        st = entry.stat()
                    except OSError:
                        continue
                    out.append((st.st_mtime, st.st_size, entry.path))
        except OSError:
            return []
        out.sort()
        return out

    def _evict(self) -> None:
        """Trim oldest entries down to the cap; reset the running total."""
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
        _DIR_BYTES[self._dir_id] = total

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for _, _, path in self._entries():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        # Other writers may have added entries meanwhile: rescan on
        # the next put rather than assume the directory is empty.
        _DIR_BYTES.pop(self._dir_id, None)
        return removed

    def stats(self) -> dict[str, Any]:
        entries = self._entries()
        return {
            "directory": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "max_bytes": self.max_bytes,
        }

    def __len__(self) -> int:
        return len(self._entries())


class TieredStore:
    """Memory LRU in front of an optional disk directory.

    Disk hits are promoted into the memory tier; puts write through
    to both.
    """

    def __init__(
        self,
        memory: MemoryStore | None = None,
        disk: DiskStore | None = None,
    ) -> None:
        self.memory = memory if memory is not None else MemoryStore()
        self.disk = disk

    def get(self, key: str) -> dict[str, Any] | None:
        doc = self.memory.get(key)
        if doc is not None:
            return doc
        if self.disk is not None:
            doc = self.disk.get(key)
            if doc is not None:
                self.memory.put(key, doc)
        return doc

    def put(self, key: str, doc: dict[str, Any]) -> None:
        self.memory.put(key, doc)
        if self.disk is not None:
            self.disk.put(key, doc)

    def invalidate(self, key: str) -> None:
        self.memory.invalidate(key)
        if self.disk is not None:
            self.disk.invalidate(key)

    def clear(self) -> None:
        self.memory.clear()
        if self.disk is not None:
            self.disk.clear()
