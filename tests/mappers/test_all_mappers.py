"""Cross-cutting tests: every registered mapper produces valid mappings.

This is the executable core of Table I — each (mapper, kernel) cell
must yield a mapping that passes the validator, or raise MapFailure.
"""

import inspect
from dataclasses import fields

import pytest

from repro.api import available_mappers, map_dfg
from repro.arch import presets
from repro.cache import mapping_cache
from repro.core.exceptions import MapFailure
from repro.core.mapping import Mapping
from repro.core.problem import MappingProblem
from repro.core.registry import catalog, create, get, names
from repro.core.serialize import mapping_to_doc
from repro.ir import kernels

SPATIAL = [n for n, m in catalog().items() if "spatial" in m["kinds"]]
TEMPORAL = [n for n, m in catalog().items() if "temporal" in m["kinds"]]

# Kernels every temporal mapper must handle on a 4x4 mesh.
EASY_KERNELS = ["vector_add", "dot_product", "if_select", "horner"]
# Heavier kernels for the fast heuristics only.
HARD_KERNELS = ["sobel_x", "sad", "iir_biquad", "diamonds3"]
FAST_TEMPORAL = [
    "list_sched", "ultrafast", "edge_centric", "crimson", "ramp",
    "epimap", "regimap", "himap",
]


@pytest.fixture(scope="module")
def cgra():
    return presets.simple_cgra(4, 4)


def test_registry_count_matches_design():
    assert len(names()) == 24


def test_every_family_represented():
    cat = catalog()
    fams = {m["family"] for m in cat.values()}
    assert fams == {"heuristic", "metaheuristic", "exact"}
    subs = {m["subfamily"] for m in cat.values()}
    for expected in ("SA", "GA", "QEA", "ILP", "SAT", "CP", "B&B"):
        assert any(expected in s for s in subs), expected


def test_exact_flag_consistent():
    cat = catalog()
    for name in ("ilp", "ilp_spatial", "sat", "csp", "bnb", "smt"):
        assert cat[name]["exact"], name
    for name in ("list_sched", "dresc", "genmap"):
        assert not cat[name]["exact"], name


@pytest.mark.parametrize("mapper", sorted(TEMPORAL))
@pytest.mark.parametrize("kernel", EASY_KERNELS)
def test_temporal_mappers_easy_kernels(cgra, mapper, kernel):
    dfg = kernels.kernel(kernel)
    m = map_dfg(dfg, cgra, mapper=mapper)
    assert m.validate() == []
    assert m.kind == "modulo"
    assert m.ii >= MappingProblem(dfg, cgra).mii
    assert m.mapper == mapper
    assert m.map_time > 0


@pytest.mark.parametrize("mapper", FAST_TEMPORAL)
@pytest.mark.parametrize("kernel", HARD_KERNELS)
def test_fast_heuristics_hard_kernels(cgra, mapper, kernel):
    dfg = kernels.kernel(kernel)
    m = map_dfg(dfg, cgra, mapper=mapper)
    assert m.validate() == []


@pytest.mark.parametrize("mapper", sorted(SPATIAL))
@pytest.mark.parametrize("kernel", ["vector_add", "dot_product", "if_select"])
def test_spatial_mappers(cgra, mapper, kernel):
    dfg = kernels.kernel(kernel)
    m = map_dfg(dfg, cgra, mapper=mapper)
    assert m.validate() == []
    assert m.kind == "spatial"
    # One cell per op in spatial mapping.
    assert len(set(m.binding.values())) == len(m.binding)


@pytest.mark.parametrize("mname", sorted(names()))
def test_map_returns_only_validated_objects(cgra, monkeypatch, mname):
    """The validation boundary: every mapping ``Mapper.map`` returns is
    an object ``Mapping.validate`` was called on — a fresh result in
    the attempt loop, a cache hit as the cache loads it.  A mapper
    that returns around the loop fails here."""
    checked: list[Mapping] = []
    validate = Mapping.validate

    def recording(self, *args, **kwargs):
        checked.append(self)
        return validate(self, *args, **kwargs)

    monkeypatch.setattr(Mapping, "validate", recording)
    options = {"jobs": 1} if mname == "portfolio" else {}
    for kernel in ("vector_add", "dot_product"):
        dfg = kernels.kernel(kernel)
        with mapping_cache() as cache:
            checked.clear()
            fresh = create(mname, **options).map(dfg, cgra)
            assert any(m is fresh for m in checked)
            checked.clear()
            hit = create(mname, **options).map(dfg, cgra)
            assert cache.stats.hits == 1
            assert any(m is hit for m in checked)


#: Every settable option of every registered mapper.  An option exists
#: while some caller sets it: the search limits that bound the exact
#: methods, and the options tests set; the rest of each method's
#: tuning is a constant in its module.
OPTIONS = {
    "bnb": {"node_limit"},
    "cluster": set(),
    "crimson": {"restarts"},
    "csp": {"node_limit"},
    "dresc": {"moves_per_temp"},
    "edge_centric": set(),
    "epimap": set(),
    "genmap": set(),
    "graph_drawing": set(),
    "graph_minor": {"max_backtracks"},
    "himap": set(),
    "ilp": {"node_limit", "time_limit"},
    "ilp_spatial": {"node_limit", "time_limit"},
    "list_sched": set(),
    "portfolio": {"mappers", "policy", "jobs", "timeout"},
    "qea": set(),
    "ramp": set(),
    "regimap": set(),
    "rl": {"episodes"},
    "sa_spatial": set(),
    "sat": {"conflict_limit"},
    "smt": {"max_models"},
    "spr": set(),
    "ultrafast": set(),
}


def test_option_set_is_pinned():
    """Adding, renaming or removing a mapper option is a reviewed
    change to this table."""
    found = {
        name: {
            f.name for f in fields(get(name))
            if f.init and f.name != "seed"
        }
        for name in names()
    }
    assert found == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 16


#: Non-default values for the options whose default does not say how
#: to change it.
_OTHER = {"mappers": ("list_sched",), "policy": "best"}


def _other(name, default):
    if name in _OTHER:
        return _OTHER[name]
    if default is None:
        return 3
    return default + 1 if isinstance(default, int) else default / 2


@pytest.mark.parametrize("mname", sorted(names()))
def test_cache_token_covers_every_option(mname):
    """The cache and dedup identity is the whole configuration: two
    default instances agree, and changing any single option changes
    the token, so no option can be left out of the key."""
    token = create(mname).cache_token()
    assert create(mname).cache_token() == token
    options = [
        p for p in inspect.signature(get(mname)).parameters.values()
        if p.name != "seed"
    ]
    for p in options:
        changed = create(mname, **{p.name: _other(p.name, p.default)})
        assert changed.cache_token() != token, p.name


def _outcome(mapper, dfg, cgra):
    try:
        return mapping_to_doc(mapper.map(dfg, cgra))
    except MapFailure as exc:
        return str(exc), exc.attempts


def test_graph_drawing_retry_keeps_the_instance_seed():
    """The jittered retry re-seeds its own drawing, not the instance,
    so a second call repeats the first (and keeps its cache key)."""
    mapper = create("graph_drawing")
    dfg, cgra = kernels.kernel("fir8"), presets.by_name("hycube4x4")
    first = _outcome(mapper, dfg, cgra)
    assert first == ("graph_drawing: legalised drawing is unroutable", 2)
    assert _outcome(mapper, dfg, cgra) == first
    assert mapper.seed == 0


@pytest.mark.parametrize("mapper", sorted(TEMPORAL))
def test_requested_ii_is_respected(cgra, mapper):
    dfg = kernels.dot_product()
    m = map_dfg(dfg, cgra, mapper=mapper, ii=2)
    assert m.ii == 2


def test_mapper_failure_is_reported():
    # 9 independent multiplies cannot fit spatially on 2x2.
    dfg = kernels.conv3x3()
    cgra = presets.simple_cgra(2, 2)
    with pytest.raises(MapFailure) as ei:
        map_dfg(dfg, cgra, mapper="sa_spatial")
    assert ei.value.mapper == "sa_spatial"


def test_temporal_mapper_fails_below_recmii(cgra):
    # iir_biquad has RecMII 3: II=1 must be infeasible for any mapper.
    dfg = kernels.iir_biquad()
    with pytest.raises(MapFailure):
        map_dfg(dfg, cgra, mapper="list_sched", ii=1)
    with pytest.raises(MapFailure):
        map_dfg(dfg, cgra, mapper="csp", ii=1)


def test_available_mappers_metadata():
    cat = available_mappers()
    assert "dresc" in cat
    assert cat["dresc"]["subfamily"] == "SA"
    assert cat["dresc"]["modeled_after"] == "[22]"


def test_heterogeneous_binding_constraints():
    """Memory-capable cells only in column 0: loads must land there."""
    dfg = kernels.dot_product_mem()
    cgra = presets.simple_cgra(4, 4, mem_cells="left")
    m = map_dfg(dfg, cgra, mapper="list_sched")
    assert m.validate() == []
    from repro.ir.dfg import Op

    for node in dfg.nodes():
        if node.op is Op.LOAD:
            assert cgra.coords(m.binding[node.nid])[0] == 0


def test_unknown_mapper_raises():
    with pytest.raises(KeyError, match="unknown mapper"):
        map_dfg(kernels.vector_add(), presets.simple_cgra(2, 2),
                mapper="magic")
