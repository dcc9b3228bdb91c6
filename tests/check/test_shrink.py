"""The shrinker: minimal, deterministic, structure-preserving."""

from repro.check.shrink import ShrinkBudget, shrink_dfg
from repro.ir import randdfg
from repro.ir.dfg import DFG, Op


def _has_mul(g: DFG) -> bool:
    return any(n.op is Op.MUL for n in g.nodes())


def test_shrinks_synthetic_failure_to_six_nodes():
    """A 'fails iff a MUL exists' predicate must strip everything else."""
    dfg = randdfg.layered(14, width=4, seed=7)
    assert _has_mul(dfg)
    small = shrink_dfg(dfg, _has_mul)
    assert _has_mul(small)
    small.check()
    # MUL + at most two producers + one OUTPUT.
    assert len(small) <= 6
    assert len(small) < len(dfg)


def test_shrink_is_deterministic():
    dfg = randdfg.layered(12, width=3, seed=11)
    if not _has_mul(dfg):  # the seed above does produce MULs
        return
    a = shrink_dfg(dfg, _has_mul)
    b = shrink_dfg(dfg, _has_mul)
    assert a.pretty() == b.pretty()


def test_shrink_keeps_graphs_well_formed():
    seen: list[int] = []

    def predicate(g: DFG) -> bool:
        g.check()  # every candidate the predicate sees is valid
        seen.append(len(g))
        return _has_mul(g)

    dfg = randdfg.layered(10, seed=3)
    if not _has_mul(dfg):
        dfg = randdfg.layered(10, seed=4)
    shrink_dfg(dfg, predicate)
    assert seen  # the predicate actually ran


def test_shrink_respects_budget():
    budget = ShrinkBudget(max_checks=5)
    dfg = randdfg.layered(14, seed=7)
    shrink_dfg(dfg, _has_mul, budget=budget)
    assert budget.checks <= 5


def test_predicate_crash_counts_as_not_failing():
    def explosive(g: DFG) -> bool:
        if len(g) < 10:
            raise RuntimeError("boom")
        return True

    dfg = randdfg.layered(12, seed=5)
    out = shrink_dfg(dfg, explosive)
    out.check()
    assert len(out) >= 10  # never shrank into the crashing region


def test_shrinks_constants_toward_zero():
    g = DFG("consts")
    x = g.input("x")
    c = g.const(1 << 60)
    y = g.add(Op.ADD, x, c)
    g.output(y, "y")

    def pred(cand: DFG) -> bool:
        return any(n.op is Op.CONST for n in cand.nodes())

    small = shrink_dfg(g, pred)
    consts = [n.value for n in small.nodes() if n.op is Op.CONST]
    assert consts and all(abs(v) <= 1 for v in consts)

