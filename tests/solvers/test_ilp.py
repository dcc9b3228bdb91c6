"""ILP solver tests, cross-checked against brute-force enumeration."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.parallel import TaskTimeout, time_limit
from repro.solvers.ilp import ILP, ILPStatus


def test_simple_binary_choice():
    ilp = ILP()
    x = [ilp.add_var() for _ in range(3)]
    ilp.add_constraint({x[0]: 1, x[1]: 1, x[2]: 1}, "==", 1)
    ilp.set_objective({x[0]: 3.0, x[1]: 1.0, x[2]: 2.0})
    res = ilp.solve()
    assert res.status is ILPStatus.OPTIMAL
    assert res.objective == pytest.approx(1.0)
    assert res.x[x[1]] == pytest.approx(1.0)


def test_knapsack():
    # values 6,10,12 weights 1,2,3 cap 5 -> take items 1,2 => 22.
    ilp = ILP()
    x = [ilp.add_var() for _ in range(3)]
    ilp.add_constraint({x[0]: 1, x[1]: 2, x[2]: 3}, "<=", 5)
    ilp.set_objective({x[0]: -6.0, x[1]: -10.0, x[2]: -12.0})
    res = ilp.solve()
    assert res.status is ILPStatus.OPTIMAL
    assert res.objective == pytest.approx(-22.0)


def test_assignment_problem_is_lp_integral_anyway():
    # 3x3 assignment, costs force the anti-diagonal.
    cost = [[9, 9, 1], [9, 1, 9], [1, 9, 9]]
    ilp = ILP()
    x = {(i, j): ilp.add_var() for i in range(3) for j in range(3)}
    for i in range(3):
        ilp.add_constraint({x[i, j]: 1 for j in range(3)}, "==", 1)
    for j in range(3):
        ilp.add_constraint({x[i, j]: 1 for i in range(3)}, "==", 1)
    ilp.set_objective({x[i, j]: cost[i][j] for i in range(3) for j in range(3)})
    res = ilp.solve()
    assert res.objective == pytest.approx(3.0)


def test_infeasible():
    ilp = ILP()
    a = ilp.add_var()
    ilp.add_constraint({a: 1}, ">=", 2)  # binary var can't reach 2
    res = ilp.solve()
    assert res.status is ILPStatus.INFEASIBLE
    assert not res.ok


def test_feasibility_problem_no_objective():
    ilp = ILP()
    a = ilp.add_var()
    b = ilp.add_var()
    ilp.add_constraint({a: 1, b: 1}, "==", 1)
    res = ilp.solve()
    assert res.ok
    assert res.x[a] + res.x[b] == pytest.approx(1.0)


def test_general_integer_variables():
    # max x + y s.t. 2x + 3y <= 12, x,y integer in [0, 5].
    ilp = ILP()
    x = ilp.add_var(ub=5)
    y = ilp.add_var(ub=5)
    ilp.add_constraint({x: 2, y: 3}, "<=", 12)
    ilp.set_objective({x: -1.0, y: -1.0})
    res = ilp.solve()
    # Best integer points all reach x + y = 5 (e.g. x=5,y=0 or x=3,y=2).
    assert res.objective == pytest.approx(-5.0)
    xv, yv = res.x[x], res.x[y]
    assert xv == round(xv) and yv == round(yv)
    assert 2 * xv + 3 * yv <= 12 + 1e-6


def test_bad_constraint_sense():
    ilp = ILP()
    a = ilp.add_var()
    with pytest.raises(ValueError, match="sense"):
        ilp.add_constraint({a: 1}, "<", 1)
    with pytest.raises(ValueError, match="empty"):
        ilp.add_constraint({}, "<=", 1)


def test_node_limit_reported():
    ilp = ILP()
    xs = [ilp.add_var() for _ in range(12)]
    ilp.add_constraint({v: w for v, w in zip(xs, [3, 5, 7, 9, 11, 13, 17, 19, 23, 29, 31, 37])}, "<=", 60)
    ilp.set_objective({v: -w for v, w in zip(xs, [3.1, 5.2, 7.3, 9.1, 11.5, 13.9, 17.2, 19.8, 23.1, 29.7, 31.3, 37.9])})
    res = ilp.solve(node_limit=2)
    assert res.status in (ILPStatus.NODE_LIMIT, ILPStatus.OPTIMAL)


def test_limit_status_is_a_limit_with_feasible_incumbent():
    """HiGHS stopping at a limit maps to NODE_LIMIT/TIME_LIMIT, and any
    point it returns is integral and satisfies every row."""
    rng = np.random.default_rng(14)
    n = 40
    w = rng.integers(1000, 2000, n)
    v = w + 100 + rng.integers(0, 5, n)
    cap, floor = w.sum() // 2, w[:20].sum() // 3
    ilp = ILP("knapsack40")
    xs = [ilp.add_var() for _ in range(n)]
    ilp.add_constraint({x: float(wi) for x, wi in zip(xs, w)}, "<=", cap)
    ilp.add_constraint(
        {x: float(wi) for x, wi in zip(xs[:20], w[:20])}, ">=", floor
    )
    ilp.set_objective({x: -float(vi) for x, vi in zip(xs, v)})
    node_limited = ilp.solve(node_limit=1)
    assert node_limited.status is ILPStatus.NODE_LIMIT
    assert node_limited.ok  # the root heuristics found an incumbent
    timed_out = ilp.solve(time_limit=0.0)
    assert timed_out.status is ILPStatus.TIME_LIMIT
    for res in (node_limited, timed_out):
        if res.x is None:
            continue
        x = res.x
        assert set(np.unique(x)) <= {0.0, 1.0}
        assert w @ x <= cap and w[:20] @ x[:20] >= floor
        assert res.objective == pytest.approx(-(v @ x))


def _market_split(m: int = 4, n: int = 40, seed: int = 0) -> ILP:
    """A market-split feasibility model: ``m`` equality rows of random
    0..99 weights over ``n`` binaries, each at half its row's sum.
    Branch and bound needs many seconds on it."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 100, size=(m, n))
    ilp = ILP("market_split")
    xs = [ilp.add_var() for _ in range(n)]
    for row in a:
        ilp.add_constraint(
            {x: float(w) for x, w in zip(xs, row)}, "==", float(row.sum() // 2)
        )
    return ilp


def test_enclosing_time_limit_bounds_highs():
    """SIGALRM cannot stop HiGHS mid-solve, so the solve takes the
    enclosing block's remaining budget as HiGHS's own time limit and
    the timeout surfaces as soon as HiGHS hands control back."""
    ilp = _market_split()
    t0 = time.perf_counter()
    with pytest.raises(TaskTimeout):
        with time_limit(1.0):
            ilp.solve(time_limit=20.0)
    assert time.perf_counter() - t0 < 1.5


def test_unbounded():
    ilp = ILP()
    a = ilp.add_var(ub=np.inf)
    b = ilp.add_var(ub=np.inf)
    ilp.add_constraint({a: 1, b: -1}, "<=", 0)
    ilp.set_objective({a: -1.0})
    res = ilp.solve()
    assert res.status is ILPStatus.UNBOUNDED
    assert not res.ok


def _feasible(x, rows):
    return all(
        (a @ x <= b) if sense == "<="
        else (a @ x >= b) if sense == ">=" else (a @ x == b)
        for a, sense, b in rows
    )


def _brute_force(c, rows, ubs):
    """Best objective over every integer point in the box, or None."""
    best = None
    for x in itertools.product(*(range(u + 1) for u in ubs)):
        x = np.array(x)
        if _feasible(x, rows):
            obj = float(c @ x)
            best = obj if best is None else min(best, obj)
    return best


@given(st.integers(0, 500))
@example(209)  # presolve ends in HiGHS "Solve error"; the re-solve decides
@settings(max_examples=25, deadline=None)
def test_random_model_matches_brute_force(seed):
    """Mixed <=/>=/== rows and one general-integer variable."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    ubs = [1] * (n - 1) + [int(rng.integers(2, 4))]
    c = rng.integers(-9, 10, n).astype(float)
    rows = []
    for _ in range(int(rng.integers(1, 4))):
        a = rng.integers(-4, 6, n)
        a[rng.random(n) < 0.3] = 0
        if not a.any():
            a[0] = 1
        sense = ("<=", ">=", "==")[int(rng.integers(3))]
        x0 = np.array([rng.integers(u + 1) for u in ubs])
        # Rows pass through a random point half the time, so feasible
        # and infeasible instances both occur.
        b = int(a @ x0) + (int(rng.integers(-2, 3)) if rng.random() < 0.5 else 0)
        rows.append((a, sense, b))

    ilp = ILP()
    xs = [ilp.add_var(ub=u) for u in ubs]
    for a, sense, b in rows:
        coeffs = {xs[i]: float(a[i]) for i in range(n) if a[i]}
        ilp.add_constraint(coeffs, sense, float(b))
    ilp.set_objective({xs[i]: c[i] for i in range(n)})
    res = ilp.solve()

    best = _brute_force(c, rows, ubs)
    if best is None:
        assert res.status is ILPStatus.INFEASIBLE
        assert not res.ok
    else:
        assert res.status is ILPStatus.OPTIMAL
        assert res.objective == pytest.approx(best, abs=1e-6)
        assert _feasible(res.x, rows)
