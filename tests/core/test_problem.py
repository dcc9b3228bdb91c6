"""MappingProblem / MII bound tests."""

import random
import time

import pytest

from repro.arch import presets
from repro.core.problem import MappingProblem
from repro.ir import dfg as dfg_module
from repro.ir import kernels, randdfg
from repro.ir.dfg import DFG, Op

from oracles import rec_mii_reference


def test_res_mii_counts_slots():
    g = kernels.conv3x3()  # 17 compute ops
    cgra = presets.simple_cgra(2, 2)
    prob = MappingProblem(g, cgra)
    assert prob.n_ops == 17
    assert prob.res_mii == 5  # ceil(17 / 4)


def test_res_mii_at_least_one():
    g = kernels.vector_add()
    cgra = presets.simple_cgra(4, 4)
    assert MappingProblem(g, cgra).res_mii == 1


def test_res_mii_memory_bound():
    g = kernels.stencil1d_mem()  # 3 loads + 1 store
    cgra = presets.simple_cgra(4, 4, mem_cells="left")
    prob = MappingProblem(g, cgra)
    assert prob.res_mii >= 1
    # 4 memory ops over 4 memory cells: memory bound is 1; compute
    # bound is ceil(9/16)=1.
    assert prob.res_mii == 1
    # 3x3 with left-column memory: 3 memory cells for 4 memory ops
    # gives mem bound ceil(4/3)=2, above the compute bound ceil(9/9)=1.
    narrow = presets.simple_cgra(3, 3, mem_cells="left")
    assert MappingProblem(g, narrow).res_mii == 2


def test_memory_ops_without_memory_cells():
    g = kernels.dot_product_mem()
    cgra = presets.simple_cgra(2, 2, mem_cells="none")
    with pytest.raises(ValueError, match="no memory cells"):
        MappingProblem(g, cgra).res_mii


def test_rec_mii_accumulator_is_one():
    g = kernels.dot_product()
    cgra = presets.simple_cgra(4, 4)
    prob = MappingProblem(g, cgra)
    assert prob.rec_mii == 1
    assert prob.mii == 1


def test_rec_mii_longer_cycle():
    # a -> b -> a with total distance 1 and two unit latencies: RecMII 2.
    g = DFG()
    x = g.input("x")
    a = g.add(Op.ADD, x, x)
    b = g.add(Op.NEG, a)
    e = g.operand(a, 1)
    g.remove_edge(e)
    g.connect(b, a, port=1, dist=1)
    cgra = presets.simple_cgra(4, 4)
    assert MappingProblem(g, cgra).rec_mii == 2


def test_rec_mii_distance_two_halves_bound():
    g = DFG()
    x = g.input("x")
    a = g.add(Op.ADD, x, x)
    b = g.add(Op.NEG, a)
    e = g.operand(a, 1)
    g.remove_edge(e)
    g.connect(b, a, port=1, dist=2)
    cgra = presets.simple_cgra(4, 4)
    assert MappingProblem(g, cgra).rec_mii == 1  # ceil(2/2)


def _rec_mii(g):
    return MappingProblem(g, presets.simple_cgra(4, 4)).rec_mii


def _recurrent_corpus(n):
    """``n`` seeded layered graphs, each with 1-6 loop-carried edges."""
    for seed in range(n):
        rng = random.Random(seed)
        g = randdfg.layered(
            rng.randint(4, 40), width=rng.randint(2, 6), seed=seed
        )
        yield randdfg.with_recurrences(
            g, count=rng.randint(1, 6), max_dist=rng.randint(1, 3),
            seed=seed,
        )


@pytest.mark.parametrize("name", kernels.kernel_names())
def test_rec_mii_matches_cycle_enumeration_on_kernels(name):
    g = kernels.kernel(name)
    assert _rec_mii(g) == rec_mii_reference(g)


def test_rec_mii_matches_cycle_enumeration_on_recurrent_corpus():
    got = [(_rec_mii(g), rec_mii_reference(g)) for g in _recurrent_corpus(400)]
    assert all(ours == ref for ours, ref in got)
    # the corpus exercises the bisection, not just the floor of 1
    assert sum(ours > 2 for ours, _ in got) > 100


def _back_edge(g, dst, src, dist, port=1):
    """Replace ``dst``'s operand ``port`` with ``src -> dst`` at ``dist``."""
    g.remove_edge(g.operand(dst, port))
    g.connect(src, dst, port=port, dist=dist)


def test_rec_mii_self_loop(monkeypatch):
    monkeypatch.setitem(dfg_module._LATENCY, Op.MUL, 3)
    g = DFG()
    x = g.input("x")
    a = g.add(Op.MUL, x, x)
    _back_edge(g, a, a, dist=2)
    assert _rec_mii(g) == 2  # ceil(3 / 2)
    assert rec_mii_reference(g) == 2


def test_rec_mii_parallel_edges_bind_at_min_distance():
    # b feeds both ports of a, at distances 3 and 1: the a <-> b cycle
    # has latency 2 and binds at distance 1.
    g = DFG()
    x = g.input("x")
    a = g.add(Op.ADD, x, x)
    b = g.add(Op.NEG, a)
    _back_edge(g, a, b, dist=3, port=0)
    _back_edge(g, a, b, dist=1, port=1)
    assert _rec_mii(g) == 2
    assert rec_mii_reference(g) == 2


def test_rec_mii_zero_distance_cycle_raises():
    # Built without DFG.check(), which would reject it.
    g = DFG()
    x = g.input("x")
    a = g.add(Op.ADD, x, x)
    b = g.add(Op.NEG, a)
    _back_edge(g, a, b, dist=0)
    with pytest.raises(ValueError, match="zero-distance"):
        _rec_mii(g)
    with pytest.raises(ValueError, match="zero-distance"):
        rec_mii_reference(g)


def test_rec_mii_does_not_enumerate_cycles():
    # A ring of 20 diamonds: every stage forks into two NEGs that join
    # in an ADD, and the last ADD feeds the head at distance 2.  Each
    # simple cycle picks one NEG per stage, so there are 2**20 > 10**6
    # of them, all with latency 1 + 2 * 20 = 41.
    stages = 20
    g = DFG()
    x = g.input("x")
    head = cur = g.add(Op.ADD, x, x)
    for _ in range(stages):
        cur = g.add(Op.ADD, g.add(Op.NEG, cur), g.add(Op.NEG, cur))
    _back_edge(g, head, cur, dist=2)
    g.check()
    t0 = time.perf_counter()
    assert _rec_mii(g) == 21  # ceil(41 / 2)
    assert time.perf_counter() - t0 < 1.0


def test_mii_is_max_of_bounds():
    g = kernels.iir_biquad()
    cgra = presets.simple_cgra(2, 1)
    prob = MappingProblem(g, cgra)
    assert prob.mii == max(prob.res_mii, prob.rec_mii)


def test_fits_spatially():
    cgra = presets.simple_cgra(2, 2)
    assert MappingProblem(kernels.vector_add(), cgra).fits_spatially()
    assert not MappingProblem(kernels.conv3x3(), cgra).fits_spatially()


def test_describe_contains_bounds():
    prob = MappingProblem(kernels.dot_product(), presets.simple_cgra(4, 4))
    text = prob.describe()
    assert "MII=1" in text and "ResMII" in text
