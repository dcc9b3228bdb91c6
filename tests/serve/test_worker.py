"""The serve worker payload: one preset build per arch, same bytes.

``_map_task`` keeps each preset it builds and hands it to every later
request on that arch; the response documents must stay byte-identical
to a serial map on a freshly built preset, cold and from the cache.
"""

from __future__ import annotations

import json

import pytest

import repro.serve.scheduler as scheduler
from perfbench.inputs import SERVE_MAPPERS
from repro.arch import presets
from repro.cache import cache_disabled, mapping_cache
from repro.core.registry import create
from repro.core.serialize import mapping_to_doc
from repro.ir import kernels


@pytest.fixture
def builds(monkeypatch):
    """An empty preset table; records every ``by_name`` call."""
    calls = []
    build = presets.by_name

    def counting(name):
        calls.append(name)
        return build(name)

    monkeypatch.setattr(scheduler, "_PRESETS", {})
    monkeypatch.setattr(presets, "by_name", counting)
    return calls


def _item(mapper, arch, kernel="dot_product"):
    return ("kernel", kernel, arch, mapper, None, {})


def _bytes(doc):
    return json.dumps(doc, sort_keys=True)


def test_two_tasks_on_one_arch_build_the_preset_once(builds):
    scheduler._map_task(_item("list_sched", "simple4x4"))
    scheduler._map_task(_item("ultrafast", "simple4x4", "fir4"))
    assert builds == ["simple4x4"]
    scheduler._map_task(_item("list_sched", "hycube4x4"))
    assert builds == ["simple4x4", "hycube4x4"]


@pytest.mark.parametrize("arch", ["simple4x4", "adres4x4"])
def test_responses_match_a_fresh_preset_baseline(builds, tmp_path, arch):
    with mapping_cache(tmp_path / "cache") as cache:
        for mapper in SERVE_MAPPERS:
            with cache_disabled():
                baseline = _bytes(mapping_to_doc(create(mapper).map(
                    kernels.kernel("dot_product"), presets.by_name(arch)
                )))
            for _ in ("miss", "hit"):
                status, doc, _meta = scheduler._map_task(_item(mapper, arch))
                assert status == "ok"
                assert _bytes(doc) == baseline, mapper
        assert cache.stats.hits == cache.stats.stores == len(SERVE_MAPPERS)
    assert builds.count(arch) == 1 + len(SERVE_MAPPERS)
