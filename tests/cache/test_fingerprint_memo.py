"""The WL colors and DFG digest are memoized on the graph.

One served request keys, looks up, stores and serializes the same
graph; the refinement must run once for all of it, and any label or
structural edit must invalidate the memo through ``dfg.revision``.
"""

from __future__ import annotations

import pytest

import repro.cache.fingerprint as fingerprint
from repro.arch import presets
from repro.cache import mapping_cache
from repro.cache.fingerprint import dfg_fingerprint, refine_colors
from repro.core.registry import create
from repro.core.serialize import mapping_from_doc, mapping_to_doc
from repro.ir import kernels
from repro.ir.dfg import DFGError, Op


@pytest.fixture
def refinements(monkeypatch):
    """Counts calls of the uncached WL refinement."""
    calls = []
    inner = fingerprint._wl_refine

    def counting(dfg):
        calls.append(dfg)
        return inner(dfg)

    monkeypatch.setattr(fingerprint, "_wl_refine", counting)
    return calls


def test_colors_and_digest_are_memoized_per_revision(refinements):
    dfg = kernels.kernel("fir4")
    colors = refine_colors(dfg)
    fp = dfg_fingerprint(dfg)
    assert refine_colors(dfg) is colors
    assert dfg_fingerprint(dfg) == fp
    assert len(refinements) == 1
    dfg.output(dfg.input("extra"), "o2")
    assert dfg_fingerprint(dfg) != fp
    assert len(refinements) == 2


def test_label_write_after_fingerprinting_changes_the_digest():
    dfg = kernels.kernel("fir4")
    const = next(n.nid for n in dfg.nodes() if n.op is Op.CONST)
    before = dfg_fingerprint(dfg)
    fresh = kernels.kernel("fir4")
    fresh.set_label(const, value=dfg.node(const).value + 1)
    dfg.set_label(const, value=dfg.node(const).value + 1)
    assert dfg_fingerprint(dfg) != before
    assert dfg_fingerprint(dfg) == dfg_fingerprint(fresh)


def test_set_label_rejects_the_node_id():
    dfg = kernels.kernel("fir4")
    with pytest.raises(DFGError):
        dfg.set_label(0, nid=99)


def test_miss_put_and_response_refine_once(refinements):
    cgra = presets.by_name("simple4x4")
    with mapping_cache() as cache:
        mapping = create("list_sched").map(kernels.kernel("fir4"), cgra)
        doc = mapping_to_doc(mapping)
        assert cache.stats.as_dict()["stores"] == 1
    assert len(refinements) == 1
    mapping_from_doc(doc, mapping.dfg, cgra, verify=True)
    assert len(refinements) == 1


def test_hit_and_response_refine_once(refinements):
    cgra = presets.by_name("simple4x4")
    with mapping_cache() as cache:
        create("list_sched").map(kernels.kernel("fir4"), cgra)
        refinements.clear()
        mapping = create("list_sched").map(kernels.kernel("fir4"), cgra)
        mapping_to_doc(mapping)
        assert cache.stats.hits == 1
    assert len(refinements) == 1
