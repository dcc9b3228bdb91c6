"""The cache is a pure optimisation: byte-identical results or bust.

Every mapping produced through the cache — cold, warm, via the disk
tier, via a renumbered-but-isomorphic graph — must serialize to
exactly the bytes an uncached run produces.  And a poisoned store must
degrade to a silent miss, never a crash or a wrong answer.
"""

from __future__ import annotations

import json

import pytest

from repro.api import map_dfg
from repro.arch import presets
from repro.bench.harness import run_matrix
from repro.cache import (
    CACHE_DIR_ENV,
    CACHE_ENV,
    MappingCache,
    cache_disabled,
    get_cache,
    mapping_cache,
    reset_cache,
)
from repro.core.registry import create
from repro.core.serialize import mapping_to_json
from repro.dse.explorer import explore
from repro.ir import kernels
from tests.cache.test_fingerprint import sum_of_products
from tests.core.test_equivalence import _row_key

MAPPERS = ["list_sched", "edge_centric", "spr", "dresc"]
KERNELS = ["dot_product", "fir4"]

SPACE = [
    {"size": 4, "topology": "mesh", "rf_size": 4, "mem_cells": "all"},
    {"size": 4, "topology": "diagonal", "rf_size": 2, "mem_cells": "left"},
]


@pytest.fixture(scope="module")
def cgra():
    return presets.simple_cgra(4, 4)


@pytest.fixture(autouse=True)
def _pristine_cache_state(monkeypatch):
    """Each test starts (and leaves the process) with caching off."""
    monkeypatch.delenv(CACHE_ENV, raising=False)
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    reset_cache()
    yield
    reset_cache()


# ---------------------------------------------------------------------------
# Activation: off by default, on by env or region
# ---------------------------------------------------------------------------
def test_cache_is_off_by_default():
    assert get_cache() is None


def test_env_var_activates_memory_tier(monkeypatch):
    monkeypatch.setenv(CACHE_ENV, "1")
    reset_cache()
    cache = get_cache()
    assert isinstance(cache, MappingCache)
    assert cache.store.disk is None


def test_env_path_activates_disk_tier(monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "c"))
    reset_cache()
    cache = get_cache()
    assert cache.store.disk is not None
    assert cache.store.disk.root == tmp_path / "c"


def test_cache_disabled_overrides_env(monkeypatch):
    monkeypatch.setenv(CACHE_ENV, "1")
    reset_cache()
    with cache_disabled():
        assert get_cache() is None
    assert get_cache() is not None


# ---------------------------------------------------------------------------
# Byte-identical equivalence
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mapper", MAPPERS)
@pytest.mark.parametrize("kname", KERNELS)
def test_cached_equals_uncached(cgra, mapper, kname):
    dfg = kernels.kernel(kname)
    reference = mapping_to_json(map_dfg(dfg, cgra, mapper=mapper))
    with mapping_cache() as cache:
        cold = mapping_to_json(map_dfg(dfg, cgra, mapper=mapper))
        warm = mapping_to_json(map_dfg(dfg, cgra, mapper=mapper))
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.validation_failures == 0
    assert cold == reference
    assert warm == reference


def test_isomorphic_renumbering_hits(cgra):
    """Construction order must not defeat the cache."""
    with mapping_cache() as cache:
        map_dfg(sum_of_products("lr"), cgra, mapper="list_sched")
        mapping = map_dfg(sum_of_products("rl"), cgra, mapper="list_sched")
        assert cache.stats.hits == 1
    assert mapping.validate() == []


def test_distinct_problems_do_not_collide(cgra):
    with mapping_cache() as cache:
        map_dfg(kernels.kernel("dot_product"), cgra, mapper="list_sched")
        small = presets.simple_cgra(4, 4, rf_size=2)
        map_dfg(kernels.kernel("dot_product"), small, mapper="list_sched")
        map_dfg(kernels.kernel("fir4"), cgra, mapper="list_sched")
        map_dfg(kernels.kernel("fir4"), cgra, mapper="edge_centric")
        assert cache.stats.hits == 0
        assert cache.stats.misses == 4


def test_disk_tier_shared_across_cache_instances(tmp_path, cgra):
    """A fresh process (modeled by a fresh cache over the same
    directory) re-uses the first process's work."""
    dfg = kernels.kernel("fir4")
    reference = mapping_to_json(map_dfg(dfg, cgra, mapper="list_sched"))
    shared = tmp_path / "shared"
    with mapping_cache(shared) as cache:
        map_dfg(dfg, cgra, mapper="list_sched")
        assert cache.stats.stores == 1
    with mapping_cache(shared) as cache:
        warm = mapping_to_json(map_dfg(dfg, cgra, mapper="list_sched"))
        assert cache.stats.hits == 1
        assert cache.stats.validation_failures == 0
    assert warm == reference


# ---------------------------------------------------------------------------
# Poisoned stores: silent misses, never crashes or wrong answers
# ---------------------------------------------------------------------------
def _wrong_fingerprint(doc):
    doc["fingerprint"] = "0" * len(doc["fingerprint"])


def _stale_format(doc):
    doc["format"] = 99


def _garbled_nodes(doc):
    doc["binding"] = {"999": 0}


@pytest.mark.parametrize(
    "mutate", [_wrong_fingerprint, _stale_format, _garbled_nodes]
)
def test_poisoned_entry_is_a_silent_miss(cgra, mutate):
    dfg = kernels.kernel("dot_product")
    reference = mapping_to_json(map_dfg(dfg, cgra, mapper="list_sched"))
    with mapping_cache() as cache:
        map_dfg(dfg, cgra, mapper="list_sched")
        [key] = cache.store.memory.keys()
        mutate(cache.store.memory.get(key))
        mapping = map_dfg(dfg, cgra, mapper="list_sched")
        assert cache.stats.validation_failures == 1
        assert cache.stats.hits == 0
        # The poisoned entry was dropped and replaced by the re-map.
        assert cache.stats.stores == 2
    assert mapping_to_json(mapping) == reference


def test_truncated_disk_entry_is_a_silent_miss(tmp_path, cgra):
    dfg = kernels.kernel("dot_product")
    shared = tmp_path / "c"
    with mapping_cache(shared):
        map_dfg(dfg, cgra, mapper="list_sched")
    for path in shared.glob("*.json"):
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
    with mapping_cache(shared) as cache:
        mapping = map_dfg(dfg, cgra, mapper="list_sched")
        assert cache.stats.hits == 0
        assert cache.stats.misses == 1
    assert mapping.validate() == []


def test_put_declines_a_mismatched_graph(cgra):
    """Exact mappers may return a mapping over a rewritten graph; such
    a result must never be stored under the original graph's key."""
    cache = MappingCache()
    dfg = kernels.kernel("dot_product")
    other = kernels.kernel("fir4")
    mapping = map_dfg(dfg, cgra, mapper="list_sched")
    key = cache.key(other, cgra, mapper="list_sched")
    cache.put(key, mapping)
    assert cache.stats.stores == 0
    assert cache.get(key, other, cgra) is None


@pytest.mark.parametrize("mapper", ["ilp", "ilp_spatial"])
def test_ilp_mappers_key_names_the_solver(cgra, mapper):
    """The solver engine is part of the key, so entries written by a
    build with a different ILP engine miss instead of aliasing."""
    dfg = kernels.kernel("dot_product")
    token = create(mapper).cache_token()
    assert token.startswith("solver=highs-milp;")
    with mapping_cache() as cache:
        map_dfg(dfg, cgra, mapper=mapper)
        keyed = cache.key(dfg, cgra, mapper=mapper, token=token)
        bare = cache.key(dfg, cgra, mapper=mapper)
        assert keyed != bare
        assert cache.get(keyed, dfg, cgra) is not None
        assert cache.get(bare, dfg, cgra) is None


def test_options_are_part_of_the_key(cgra):
    """A mapping made under non-default options is never the answer to
    a default call of the same problem: the second map misses."""
    dfg = kernels.kernel("dot_product")
    with mapping_cache() as cache:
        map_dfg(dfg, cgra, mapper="dresc", moves_per_temp=5)
        map_dfg(dfg, cgra, mapper="dresc")
        assert (cache.stats.hits, cache.stats.misses) == (0, 2)
        map_dfg(dfg, cgra, mapper="dresc", moves_per_temp=5)
        assert cache.stats.hits == 1


# ---------------------------------------------------------------------------
# Harness integration: run_matrix, explore, portfolio
# ---------------------------------------------------------------------------
def test_run_matrix_cache_equivalence(cgra):
    reference = run_matrix(MAPPERS, KERNELS, cgra, cache=False)
    cache = MappingCache()
    cold = run_matrix(MAPPERS, KERNELS, cgra, cache=cache)
    warm = run_matrix(MAPPERS, KERNELS, cgra, cache=cache)
    ref_keys = [_row_key(r) for r in reference]
    assert [_row_key(r) for r in cold] == ref_keys
    assert [_row_key(r) for r in warm] == ref_keys
    assert cache.stats.hits >= len(MAPPERS) * len(KERNELS)
    assert cache.stats.validation_failures == 0


def test_run_matrix_parallel_merges_worker_stats(tmp_path, cgra):
    cache = MappingCache(tmp_path / "c")
    run_matrix(["list_sched"], KERNELS, cgra, jobs=2, cache=cache)
    cold_hits = cache.stats.hits
    run_matrix(["list_sched"], KERNELS, cgra, jobs=2, cache=cache)
    # The warm hits happened inside forked workers; the parent's stats
    # must still see them.
    assert cache.stats.hits - cold_hits >= len(KERNELS)
    assert cache.stats.validation_failures == 0


def test_run_matrix_in_process_computes_no_dedup_keys(monkeypatch, cgra):
    calls = []
    key = MappingCache.key

    def counted(self, *args, **kwargs):
        calls.append(1)
        return key(self, *args, **kwargs)

    monkeypatch.setattr(MappingCache, "key", counted)
    serial_cache = MappingCache()
    serial = run_matrix(MAPPERS, KERNELS, cgra, jobs=1, cache=serial_cache)
    # One key per cell, the one its own map looks up: at jobs=1 pmap
    # never reads dedup keys, so none are computed for it.
    assert len(calls) == len(MAPPERS) * len(KERNELS)
    pool_cache = MappingCache()
    pooled = run_matrix(MAPPERS, KERNELS, cgra, jobs=2, cache=pool_cache)
    assert [_row_key(r) for r in serial] == [_row_key(r) for r in pooled]
    assert (serial_cache.stats.hits, serial_cache.stats.misses) == (
        pool_cache.stats.hits, pool_cache.stats.misses
    )


def test_explore_cache_equivalence(tmp_path):
    suite = ["dot_product", "fir4"]
    reference = explore(SPACE, suite, cache=False)
    cache = MappingCache(tmp_path / "c")
    cold = explore(SPACE, suite, cache=cache)
    warm = explore(SPACE, suite, cache=cache)
    assert cold == reference
    assert warm == reference
    assert cache.stats.hits >= len(SPACE) * len(suite)
    assert cache.stats.validation_failures == 0


def test_portfolio_seeds_entrant_entries(cgra):
    dfg = kernels.kernel("dot_product")
    with mapping_cache() as cache:
        won = map_dfg(
            dfg, cgra, mapper="portfolio",
            mappers=("list_sched", "edge_centric"), jobs=1, policy="best",
        )
        stores = cache.stats.stores
        assert stores >= 1
        # A later direct call to the winning entrant hits immediately —
        # the race seeded the cache; nothing re-maps, nothing re-stores.
        hits = cache.stats.hits
        again = map_dfg(dfg, cgra, mapper="list_sched")
        assert cache.stats.hits == hits + 1
        assert cache.stats.stores == stores
    assert again.ii == won.ii
    assert again.validate() == []
