"""Predication transforms: structure and end-to-end semantics."""

import pytest

from repro.controlflow import (
    flatten_cdfg,
    full_predication,
    partial_predication,
)
from repro.controlflow.dual_issue import dual_issue
from repro.frontend import compile_to_cdfg
from repro.ir.cdfg import CFG
from repro.ir.dfg import DFG, Op
from repro.ir.interp import DFGInterpreter, evaluate


def make_ite_cdfg():
    """if (a > b) y = a - b; else y = b + 1;  out = y * 2"""
    cdfg = CFG("ite")
    entry = cdfg.add_block(label="entry")
    eb = cdfg.block(entry).body
    a = eb.input("a")
    b = eb.input("b")
    c = eb.add(Op.GT, a, b)
    eb.output(c, "cond")
    eb.output(a, "a")
    eb.output(b, "b")

    then = cdfg.add_block(label="then")
    tb = cdfg.block(then).body
    ta = tb.input("a")
    tbv = tb.input("b")
    tb.output(tb.add(Op.SUB, ta, tbv), "y")

    els = cdfg.add_block(label="else")
    ob = cdfg.block(els).body
    oa = ob.input("b")
    one = ob.const(1)
    ob.output(ob.add(Op.ADD, oa, one), "y")

    join = cdfg.add_block(label="join")
    jb = cdfg.block(join).body
    jy = jb.input("y")
    two = jb.const(2)
    jb.output(jb.add(Op.MUL, jy, two), "out")

    cdfg.set_branch(entry, "cond", then, els)
    cdfg.set_jump(then, join)
    cdfg.set_jump(els, join)
    cdfg.set_exit(join)
    cdfg.check()
    return cdfg


def ref(a, b):
    y = a - b if a > b else b + 1
    return y * 2


#: only the then arm redefines ``y``: an untaken then arm must leave
#: the entry's ``y`` at the join
ONE_SIDED = """
kernel k { y = x + 1; if (c > 0) { y = y * 2; } else { z = x; } out y; }
"""


@pytest.mark.parametrize(
    "transform",
    [
        partial_predication,
        full_predication,
        pytest.param(lambda c: dual_issue(c)[0], id="dual_issue"),
    ],
)
def test_ite_semantics_preserved(transform):
    cdfg = make_ite_cdfg()
    dfg = transform(cdfg)
    dfg.check()
    A = [5, 1, 7, 3]
    B = [3, 9, 7, 0]
    out = evaluate(dfg, 4, {"a": A, "b": B})
    assert out["out"] == [ref(x, y) for x, y in zip(A, B)]

    dfg = transform(compile_to_cdfg(ONE_SIDED))
    X = [5, 5, 3, -2]
    C = [-1, 1, 0, 7]
    out = evaluate(dfg, 4, {"x": X, "c": C})
    assert out["y"] == [
        (x + 1) * 2 if c > 0 else x + 1 for x, c in zip(X, C)
    ]


def test_partial_inserts_select():
    dfg = partial_predication(make_ite_cdfg())
    assert any(n.op is Op.SELECT for n in dfg.nodes())
    # No predicated nodes in partial predication.
    assert all(n.pred is None for n in dfg.nodes())


def test_full_predicates_arm_ops():
    dfg = full_predication(make_ite_cdfg())
    preds = [n for n in dfg.nodes() if n.pred is not None]
    assert len(preds) == 2  # SUB in then, ADD in else
    polarities = {n.pred for n in preds}
    assert polarities == {True, False}
    # Each predicated op has the extra predicate operand.
    for n in preds:
        assert dfg.operand(n.nid, n.op.arity) is not None


def test_full_predication_has_more_edges_than_partial():
    """The predicate network is full predication's routing cost."""
    cdfg = make_ite_cdfg()
    partial = partial_predication(cdfg)
    full = full_predication(cdfg)
    assert full.num_edges() > 0 and partial.num_edges() > 0
    # Predicate edges: one per predicated op.
    pred_edges = sum(1 for n in full.nodes() if n.pred is not None)
    assert pred_edges == 2


def make_store_cdfg():
    """if (x > 0) A[0] = x;  out = flag"""
    cdfg = CFG("store_ite")
    entry = cdfg.add_block(label="entry")
    eb = cdfg.block(entry).body
    x = eb.input("x")
    zero = eb.const(0)
    c = eb.add(Op.GT, x, zero)
    eb.output(c, "cond")
    eb.output(x, "x")

    then = cdfg.add_block(label="then")
    tb = cdfg.block(then).body
    tx = tb.input("x")
    z = tb.const(0)
    st = tb.add(Op.STORE, z, tx, array="A")
    tb.output(st, "stored")

    els = cdfg.add_block(label="else")
    ob = cdfg.block(els).body
    zz = ob.const(0)
    ob.output(zz, "stored")

    join = cdfg.add_block(label="join")
    jb = cdfg.block(join).body
    s = jb.input("stored")
    jb.output(s, "out")

    cdfg.set_branch(entry, "cond", then, els)
    cdfg.set_jump(then, join)
    cdfg.set_jump(els, join)
    cdfg.set_exit(join)
    cdfg.check()
    return cdfg


def test_partial_predication_guards_stores_via_load_select():
    dfg = partial_predication(make_store_cdfg())
    # The rewrite adds a LOAD next to the STORE.
    assert any(n.op is Op.LOAD for n in dfg.nodes())
    interp = DFGInterpreter(dfg, memory={"A": [99]})
    interp.run(1, {"x": [-5]})
    assert interp.memory["A"] == [99]  # untaken store writes old value
    interp2 = DFGInterpreter(dfg, memory={"A": [99]})
    interp2.run(1, {"x": [7]})
    assert interp2.memory["A"] == [7]


def test_full_predication_skips_disabled_store():
    dfg = full_predication(make_store_cdfg())
    # No extra LOAD needed.
    assert not any(n.op is Op.LOAD for n in dfg.nodes())
    interp = DFGInterpreter(dfg, memory={"A": [99]})
    interp.run(1, {"x": [-5]})
    assert interp.memory["A"] == [99]
    interp2 = DFGInterpreter(dfg, memory={"A": [99]})
    interp2.run(1, {"x": [7]})
    assert interp2.memory["A"] == [7]


def test_flatten_single_block():
    cdfg = CFG("straight")
    b = cdfg.add_block()
    body = cdfg.block(b).body
    x = body.input("x")
    body.output(body.add(Op.NEG, x), "y")
    cdfg.set_exit(b)
    dfg = flatten_cdfg(cdfg)
    assert evaluate(dfg, 1, {"x": [4]})["y"] == [-4]


def test_flatten_diamond_uses_partial_predication():
    dfg = flatten_cdfg(make_ite_cdfg())
    assert any(n.op is Op.SELECT for n in dfg.nodes())


def test_flatten_rejects_general_cfg():
    cdfg = CFG("loopy")
    a = cdfg.add_block()
    b = cdfg.add_block()
    c = cdfg.add_block()
    body = cdfg.block(a).body
    one = body.const(1)
    body.output(one, "c")
    cdfg.set_branch(a, "c", b, c)
    cdfg.set_exit(b)
    cdfg.set_exit(c)
    with pytest.raises(ValueError, match="neither"):
        flatten_cdfg(cdfg)


def test_predicated_dfg_is_mappable():
    from repro.api import map_dfg
    from repro.arch import presets

    dfg = full_predication(make_ite_cdfg())
    m = map_dfg(dfg, presets.simple_cgra(4, 4), mapper="list_sched")
    assert m.validate() == []
