"""Content-addressed mapping cache.

Real mapping traffic is massively repetitive: a DSE sweep maps the
same four kernels on 24 design points, the portfolio races twenty
mappers on one problem, and ``run_matrix`` replays identical
(kernel, arch) pairs run after run.  This subsystem makes the *second*
identical call free:

* **Canonical keys** (:mod:`repro.cache.fingerprint`) — an
  isomorphism-invariant DFG digest plus an architecture digest
  covering everything that affects feasibility, combined with the
  mapper's identity (name, seed, requested II, configuration token).
* **Tiered store** (:mod:`repro.cache.store`) — an in-process LRU
  over :mod:`repro.core.serialize` documents, optionally backed by an
  on-disk directory (atomic writes, corruption-tolerant reads, byte
  cap) that forked ``pmap`` workers and separate processes share.
* **Validate-on-load** — every loaded document is fingerprint-checked
  and the decoded :class:`~repro.core.mapping.Mapping` re-validated
  against the live problem before it is returned.  A stale, corrupt,
  or mistranslated entry is a silent miss (counted in
  ``validation_failures``), never a wrong answer.

The cache is **off by default**.  Turn it on per region::

    with mapping_cache() as cache:            # in-process LRU only
        mapper.map(dfg, cgra)
        mapper.map(dfg, cgra)                 # hit
    print(cache.stats.as_dict())

    with mapping_cache("/tmp/repro-cache"):   # + shared disk tier
        explore(jobs=4)

or process-wide via the environment: ``REPRO_CACHE=1`` enables the
memory tier, ``REPRO_CACHE=/path`` (or ``REPRO_CACHE=1`` plus
``REPRO_CACHE_DIR=/path``) adds the disk tier.  ``cache_disabled()``
forces it off for a region regardless of the environment.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.arch.cgra import CGRA
from repro.cache.fingerprint import (
    DIGEST_LEN,
    arch_fingerprint,
    canonical_ids,
    dfg_fingerprint,
    problem_fingerprint,
)
from repro.cache.store import (
    DEFAULT_DISK_BYTES,
    DiskStore,
    MemoryStore,
    TieredStore,
)
from repro.core.mapping import Mapping
from repro.core.serialize import mapping_from_doc, mapping_to_doc
from repro.ir.dfg import DFG
from repro.obs.tracer import (
    CACHE_HITS,
    CACHE_MISSES,
    CACHE_VALIDATION_FAILURES,
    get_tracer,
)

if TYPE_CHECKING:
    from repro.core.mapper import Mapper

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_ENV",
    "CacheStats",
    "DiskStore",
    "MappingCache",
    "MemoryStore",
    "TieredStore",
    "arch_fingerprint",
    "cache_dir_from_env",
    "cache_disabled",
    "cache_scope",
    "canonical_ids",
    "dfg_fingerprint",
    "get_cache",
    "mapping_cache",
    "problem_fingerprint",
    "reset_cache",
    "set_cache",
]

#: Master switch: ``1``/``on``/``true`` enables the memory tier, any
#: other non-empty value is taken as the disk directory path.
CACHE_ENV = "REPRO_CACHE"
#: Disk directory used when :data:`CACHE_ENV` enables the cache.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_OFF_VALUES = frozenset({"", "0", "off", "false", "no"})
_ON_VALUES = frozenset({"1", "on", "true", "yes"})


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`MappingCache`."""

    hits: int = 0
    misses: int = 0
    validation_failures: int = 0
    stores: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "validation_failures": self.validation_failures,
            "stores": self.stores,
        }

    def snapshot(self) -> tuple[int, int, int, int]:
        return (self.hits, self.misses, self.validation_failures,
                self.stores)

    def delta_since(
        self, before: tuple[int, int, int, int]
    ) -> dict[str, int]:
        now = self.snapshot()
        keys = ("hits", "misses", "validation_failures", "stores")
        return {k: now[i] - before[i] for i, k in enumerate(keys)}

    def merge(self, delta: dict[str, int] | None) -> None:
        """Fold a worker's stats delta into this process's totals."""
        if not delta:
            return
        self.hits += delta.get("hits", 0)
        self.misses += delta.get("misses", 0)
        self.validation_failures += delta.get("validation_failures", 0)
        self.stores += delta.get("stores", 0)

    def describe(self) -> str:
        return (
            f"{self.hits} hit(s), {self.misses} miss(es),"
            f" {self.validation_failures} validation failure(s),"
            f" {self.stores} store(s)"
        )


class MappingCache:
    """The content-addressed mapping cache: keys, store, validation."""

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        *,
        disk_bytes: int = DEFAULT_DISK_BYTES,
    ) -> None:
        self.store = TieredStore(
            MemoryStore(),
            DiskStore(directory, disk_bytes) if directory else None,
        )
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def key(
        self,
        dfg: DFG,
        cgra: CGRA,
        mapper: Mapper,
        ii: int | None = None,
    ) -> str:
        """The canonical cache key of ``mapper`` mapping ``dfg`` on
        ``cgra``.

        Covers the problem (canonical DFG and architecture digests)
        and the solver identity (mapper name, seed, requested II, and
        the mapper's :meth:`~repro.core.mapper.Mapper.cache_token`) —
        everything that can change the produced mapping.
        """
        import hashlib

        base = (
            f"{dfg_fingerprint(dfg)}"
            f"{arch_fingerprint(cgra)}"
            f"-{mapper.info.name}-s{mapper.seed}"
            f"-ii{'auto' if ii is None else ii}"
        )
        token = mapper.cache_token()
        if token:
            digest = hashlib.sha256(token.encode()).hexdigest()[:8]
            base += f"-t{digest}"
        return base

    # ------------------------------------------------------------------
    def get(self, key: str, dfg: DFG, cgra: CGRA) -> Mapping | None:
        """Look up, decode, and re-validate a cached mapping.

        Returns None on a miss *or* on any defect in the stored entry
        (wrong fingerprint, stale format, truncated document,
        failed validation) — defects additionally bump the
        ``validation_failures`` stat and the tracer counter, and the
        poisoned entry is dropped from the store.
        """
        tracer = get_tracer()
        doc = self.store.get(key)
        if doc is None:
            self.stats.misses += 1
            tracer.count(CACHE_MISSES)
            return None
        try:
            # The key's leading segment IS the live problem's
            # fingerprint (key() just computed it), so the document
            # check needs no recomputation.
            if doc.get("fingerprint") != key.split("-", 1)[0]:
                raise ValueError("fingerprint mismatch")
            canon = canonical_ids(dfg)
            canon_to_live = {c: nid for nid, c in canon.items()}
            mapping = mapping_from_doc(
                doc, dfg, cgra, node_map=canon_to_live, verify=False
            )
        except Exception:
            # Validate-on-load invariant: a bad entry is a miss, never
            # a crash and never a wrong answer.
            self.stats.misses += 1
            self.stats.validation_failures += 1
            tracer.count(CACHE_MISSES)
            tracer.count(CACHE_VALIDATION_FAILURES)
            self.store.invalidate(key)
            return None
        self.stats.hits += 1
        tracer.count(CACHE_HITS)
        return mapping

    def put(self, key: str, mapping: Mapping) -> None:
        """Store a mapping under ``key`` in canonical node-id space.

        Declined (silently) when the mapping's own graph does not
        match the key's DFG digest: exact mappers may hand back a
        mapping over a ROUTE-split *rewrite* of the caller's graph,
        and such a result cannot be replayed onto the graph the key
        describes.
        """
        if dfg_fingerprint(mapping.dfg) != key[:DIGEST_LEN]:
            return
        doc = mapping_to_doc(mapping, node_map=canonical_ids(mapping.dfg))
        self.store.put(key, doc)
        self.stats.stores += 1

    def clear(self) -> None:
        self.store.clear()


# ---------------------------------------------------------------------------
# The process-wide active cache.  ``_UNSET`` means "not yet resolved
# from the environment"; an explicit ``set_cache`` (or the context
# managers) overrides the environment either way.
_UNSET = object()
_ACTIVE: MappingCache | None | object = _UNSET


def cache_dir_from_env() -> str | None:
    """The cache directory the environment names, or None: a
    path-valued :data:`CACHE_ENV` (the path doubles as the on-switch),
    else :data:`CACHE_DIR_ENV`.  The active cache and ``repro cache
    stats|clear`` both read it here."""
    value = os.environ.get(CACHE_ENV, "").strip()
    if value.lower() not in _OFF_VALUES | _ON_VALUES:
        return value
    return os.environ.get(CACHE_DIR_ENV) or None


def _cache_from_env() -> MappingCache | None:
    if os.environ.get(CACHE_ENV, "").strip().lower() in _OFF_VALUES:
        return None
    return MappingCache(cache_dir_from_env())


def get_cache() -> MappingCache | None:
    """The active cache, or None when caching is off (the default)."""
    global _ACTIVE
    if _ACTIVE is _UNSET:
        _ACTIVE = _cache_from_env()
    return _ACTIVE  # type: ignore[return-value]


def set_cache(cache: MappingCache | None) -> MappingCache | None:
    """Install ``cache`` (None = force off); returns the previous one."""
    global _ACTIVE
    previous = get_cache()
    _ACTIVE = cache
    return previous


def reset_cache() -> None:
    """Forget any installed cache; the next lookup re-reads the env."""
    global _ACTIVE
    _ACTIVE = _UNSET


@contextmanager
def mapping_cache(
    directory: str | os.PathLike | None = None,
    *,
    disk_bytes: int = DEFAULT_DISK_BYTES,
    cache: MappingCache | None = None,
) -> Iterator[MappingCache]:
    """Enable caching for a region; restores the previous state on exit.

    ::

        with mapping_cache() as cache:
            mapper.map(dfg, cgra)     # miss + store
            mapper.map(dfg, cgra)     # hit
    """
    active = cache if cache is not None else MappingCache(
        directory, disk_bytes=disk_bytes
    )
    previous = set_cache(active)
    try:
        yield active
    finally:
        set_cache(previous)


@contextmanager
def cache_disabled() -> Iterator[None]:
    """Force caching off for a region, overriding the environment."""
    previous = set_cache(None)
    try:
        yield
    finally:
        set_cache(previous)


@contextmanager
def cache_scope(
    cache: bool | str | os.PathLike | MappingCache | None = None,
) -> Iterator[MappingCache | None]:
    """Resolve a user-facing tri-state cache option into a region.

    The harness entry points (``run_matrix``, ``explore``, the CLI)
    all take the same ``cache`` argument:

    * ``None`` — leave the ambient state alone (environment, or an
      enclosing :func:`mapping_cache` region);
    * ``False`` — force caching off for the region;
    * ``True`` — fresh in-process memory tier;
    * a path — memory tier plus a shared disk tier at that directory;
    * a :class:`MappingCache` — install that instance (lets callers
      carry stats across regions).
    """
    if cache is None:
        yield get_cache()
    elif cache is False:
        with cache_disabled():
            yield None
    elif cache is True:
        with mapping_cache() as active:
            yield active
    elif isinstance(cache, MappingCache):
        with mapping_cache(cache=cache) as active:
            yield active
    else:
        with mapping_cache(cache) as active:
            yield active
