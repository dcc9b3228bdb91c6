"""SAT solver tests: unit cases, pigeonhole, random 3-SAT vs brute force."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers.sat import CNF, SatSolver


def brute_force_sat(n_vars, clauses):
    for bits in itertools.product([False, True], repeat=n_vars):
        ok = True
        for cl in clauses:
            if not any(
                bits[abs(l) - 1] == (l > 0) for l in cl
            ):
                ok = False
                break
        if ok:
            return True
    return False


def check_model(clauses, model):
    return all(any(model[abs(l)] == (l > 0) for l in cl) for cl in clauses)


def test_single_unit_clause():
    cnf = CNF()
    a = cnf.new_var("a")
    cnf.add(a)
    res = SatSolver(cnf).solve()
    assert res.sat and res.assignment[a] is True


def test_contradictory_units():
    cnf = CNF()
    a = cnf.new_var()
    cnf.add(a)
    cnf.add(-a)
    assert not SatSolver(cnf).solve().sat


def test_implication_chain_propagates():
    cnf = CNF()
    vs = [cnf.new_var() for _ in range(6)]
    cnf.add(vs[0])
    for i in range(5):
        cnf.implies(vs[i], vs[i + 1])
    res = SatSolver(cnf).solve()
    assert res.sat
    assert all(res.assignment[v] for v in vs)


def test_simple_unsat_triangle():
    cnf = CNF()
    a, b, c = (cnf.new_var() for _ in range(3))
    cnf.add(a, b)
    cnf.add(a, -b)
    cnf.add(-a, c)
    cnf.add(-a, -c)
    assert not SatSolver(cnf).solve().sat


@pytest.mark.parametrize("holes", [1, 2, 3])
def test_pigeonhole_unsat(holes):
    """holes+1 pigeons into `holes` holes is UNSAT."""
    pigeons = holes + 1
    cnf = CNF()
    var = {
        (p, h): cnf.new_var() for p in range(pigeons) for h in range(holes)
    }
    for p in range(pigeons):
        cnf.add(*[var[p, h] for h in range(holes)])
    for h in range(holes):
        cnf.at_most_one([var[p, h] for p in range(pigeons)])
    assert not SatSolver(cnf).solve().sat


def test_pigeonhole_equal_sat():
    cnf = CNF()
    n = 3
    var = {(p, h): cnf.new_var() for p in range(n) for h in range(n)}
    for p in range(n):
        cnf.exactly_one([var[p, h] for h in range(n)])
    for h in range(n):
        cnf.at_most_one([var[p, h] for p in range(n)])
    res = SatSolver(cnf).solve()
    assert res.sat
    assert check_model(cnf.clauses, res.assignment)


def test_exactly_one_helper():
    cnf = CNF()
    vs = [cnf.new_var() for _ in range(4)]
    cnf.exactly_one(vs)
    res = SatSolver(cnf).solve()
    assert res.sat
    assert sum(res.assignment[v] for v in vs) == 1


def test_implies_any_helper():
    cnf = CNF()
    a, b, c = (cnf.new_var() for _ in range(3))
    cnf.add(a)
    cnf.implies_any(a, [b, c])
    cnf.add(-b)
    res = SatSolver(cnf).solve()
    assert res.sat and res.assignment[c]


def test_named_variables():
    cnf = CNF()
    cnf.new_var("x")
    assert cnf.var("x") == 1
    with pytest.raises(ValueError, match="duplicate"):
        cnf.new_var("x")


def test_literal_validation():
    cnf = CNF()
    cnf.new_var()
    with pytest.raises(ValueError):
        cnf.add(0)
    with pytest.raises(ValueError):
        cnf.add(5)
    with pytest.raises(ValueError, match="empty"):
        cnf.add()


def test_graph_coloring_3cycle_2colors_unsat():
    cnf = CNF()
    col = {(v, c): cnf.new_var() for v in range(3) for c in range(2)}
    for v in range(3):
        cnf.exactly_one([col[v, c] for c in range(2)])
    for u, v in [(0, 1), (1, 2), (2, 0)]:
        for c in range(2):
            cnf.add(-col[u, c], -col[v, c])
    assert not SatSolver(cnf).solve().sat


@given(seed=st.integers(0, 2000))
@settings(max_examples=60, deadline=None)
def test_random_3sat_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    m = rng.randint(3, int(4.5 * n))
    cnf = CNF()
    for _ in range(n):
        cnf.new_var()
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), min(3, n))
        cl = [v if rng.random() < 0.5 else -v for v in vs]
        clauses.append(cl)
        cnf.add(*cl)
    res = SatSolver(cnf).solve()
    expected = brute_force_sat(n, clauses)
    assert res.sat == expected
    if res.sat:
        assert check_model(clauses, res.assignment)


# -- incremental solving / assumptions --------------------------------------
def test_assumptions_flip_between_solves():
    cnf = CNF()
    a, b = cnf.new_var(), cnf.new_var()
    cnf.add(a, b)
    solver = SatSolver(cnf)
    res = solver.solve(assumptions=[-a])
    assert res.sat and res.assignment[b]
    res = solver.solve(assumptions=[-b])
    assert res.sat and res.assignment[a]
    res = solver.solve(assumptions=[-a, -b])
    assert not res.sat
    # An assumption failure is not permanent: the instance stays usable.
    assert solver.solve().sat


def test_incremental_clauses_between_solves():
    cnf = CNF()
    vs = [cnf.new_var() for _ in range(3)]
    cnf.exactly_one(vs)
    solver = SatSolver(cnf)
    models = []
    while True:
        res = solver.solve()
        if not res.sat:
            break
        chosen = next(v for v in vs if res.assignment[v])
        models.append(chosen)
        cnf.add(-chosen)  # block and re-solve on the same instance
    assert sorted(models) == vs  # enumerated every model exactly once


def test_assumption_selector_retirement():
    """The sat_mapper pattern: guarded groups retired by unit clauses."""
    cnf = CNF()
    x = cnf.new_var()
    s1 = cnf.new_var()
    cnf.add(-s1, x)  # under s1: x must hold
    solver = SatSolver(cnf)
    assert solver.solve(assumptions=[s1]).assignment[x]
    cnf.add(-s1)  # retire s1
    s2 = cnf.new_var()
    cnf.add(-s2, -x)  # under s2: x must not hold
    res = solver.solve(assumptions=[s2])
    assert res.sat and not res.assignment[x]


def test_conflict_limit_sets_limit_reached():
    holes = 8
    pigeons = holes + 1
    cnf = CNF()
    var = {
        (p, h): cnf.new_var() for p in range(pigeons) for h in range(holes)
    }
    for p in range(pigeons):
        cnf.add(*[var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add(-var[p1, h], -var[p2, h])
    res = SatSolver(cnf).solve(conflict_limit=5)
    assert not res.sat and res.limit_reached
    from oracles import DPLLSolver

    res = DPLLSolver(cnf).solve(conflict_limit=5)
    assert not res.sat and res.limit_reached


def test_genuine_unsat_leaves_limit_flag_clear():
    cnf = CNF()
    a = cnf.new_var()
    cnf.add(a)
    cnf.add(-a)
    res = SatSolver(cnf).solve(conflict_limit=10_000)
    assert not res.sat and not res.limit_reached


# -- ladder (sequential) at-most-one ----------------------------------------
def test_ladder_amo_large_group_semantics():
    from repro.solvers.sat import AMO_PAIRWISE_MAX

    n = AMO_PAIRWISE_MAX + 6
    cnf = CNF()
    lits = [cnf.new_var() for _ in range(n)]
    cnf.at_most_one(lits)
    assert cnf.n_vars > n  # ladder introduced auxiliary variables
    solver = SatSolver(cnf)
    # Any single literal can be on...
    for x in (lits[0], lits[n // 2], lits[-1]):
        res = solver.solve(assumptions=[x])
        assert res.sat
        assert sum(res.assignment[v] for v in lits) == 1
    # ...but no pair can.
    assert not solver.solve(assumptions=[lits[2], lits[11]]).sat


def test_ladder_amo_guard_disables_constraint():
    from repro.solvers.sat import AMO_PAIRWISE_MAX

    n = AMO_PAIRWISE_MAX + 4
    cnf = CNF()
    lits = [cnf.new_var() for _ in range(n)]
    g = cnf.new_var()
    cnf.at_most_one(lits, guard=g)
    solver = SatSolver(cnf)
    # Guard off: two literals may hold simultaneously.
    assert solver.solve(assumptions=[-g, lits[0], lits[1]]).sat
    # Guard on: the constraint bites.
    assert not solver.solve(assumptions=[g, lits[0], lits[1]]).sat
