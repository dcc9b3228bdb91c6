"""Randomized CDCL-vs-DPLL equivalence fuzzing.

The tentpole guarantee of the CDCL upgrade: behind the same
:class:`SatResult` interface, the learning solver and the retained
DPLL reference agree on sat/unsat for every formula, and every model
either returns satisfies every clause.  ~200 seeded random CNFs keep
the check deterministic and fast.  The DPLL engine lives in
``tests/oracles``.
"""

import random

import pytest

from repro.solvers.sat import CNF, SatSolver

from oracles import DPLLSolver


def _random_cnf(seed: int) -> tuple[CNF, list[list[int]]]:
    rng = random.Random(seed)
    n = rng.randint(3, 14)
    m = rng.randint(2, int(4.4 * n))
    cnf = CNF()
    for _ in range(n):
        cnf.new_var()
    clauses = []
    for _ in range(m):
        width = rng.choice((1, 2, 2, 3, 3, 3))
        vs = rng.sample(range(1, n + 1), min(width, n))
        cl = [v if rng.random() < 0.5 else -v for v in vs]
        clauses.append(cl)
        cnf.add(*cl)
    return cnf, clauses


def _satisfies(clauses, model) -> bool:
    return all(
        any(model[abs(l)] == (l > 0) for l in cl) for cl in clauses
    )


@pytest.mark.parametrize("seed", range(200))
def test_cdcl_and_dpll_agree(seed):
    cnf, clauses = _random_cnf(seed)
    cdcl = SatSolver(cnf).solve()
    dpll = DPLLSolver(cnf).solve()
    assert cdcl.sat == dpll.sat, f"seed {seed}: cdcl={cdcl.sat} dpll={dpll.sat}"
    if cdcl.sat:
        assert _satisfies(clauses, cdcl.assignment), f"seed {seed}: bad model"
        assert _satisfies(clauses, dpll.assignment), f"seed {seed}: bad model"


@pytest.mark.parametrize("seed", range(60))
def test_assumptions_match_unit_clauses(seed):
    """solve(assumptions=A) == solving a copy with A as unit clauses."""
    cnf, clauses = _random_cnf(seed * 7919 + 13)
    rng = random.Random(seed)
    n = cnf.n_vars
    assumed = [
        v if rng.random() < 0.5 else -v
        for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
    ]
    under = SatSolver(cnf).solve(assumptions=assumed)

    hard = CNF()
    for _ in range(n):
        hard.new_var()
    for cl in clauses:
        hard.add(*cl)
    for lit in assumed:
        hard.add(lit)
    expected = SatSolver(hard).solve()

    assert under.sat == expected.sat, f"seed {seed}: assumptions diverge"
    if under.sat:
        assert _satisfies(clauses, under.assignment)
        for lit in assumed:
            assert under.assignment[abs(lit)] == (lit > 0)


@pytest.mark.parametrize("seed", range(40))
def test_incremental_blocking_enumeration_is_exhaustive(seed):
    """Reusing one instance across blocking clauses loses no models."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    cnf, clauses = _random_cnf(seed * 31 + 5)
    if cnf.n_vars > 8:
        pytest.skip("enumeration kept small")
    solver = SatSolver(cnf)
    seen = set()
    while True:
        res = solver.solve()
        if not res.sat:
            break
        model = tuple(
            v if res.assignment[v] else -v
            for v in range(1, cnf.n_vars + 1)
        )
        assert model not in seen, f"seed {seed}: duplicate model"
        seen.add(model)
        cnf.add(*(-lit for lit in model))
    # Brute force count must match.
    import itertools

    count = 0
    for bits in itertools.product([False, True], repeat=cnf.n_vars):
        model = {v: bits[v - 1] for v in range(1, cnf.n_vars + 1)}
        if _satisfies(clauses, model):
            count += 1
    assert len(seen) == count, f"seed {seed}: {len(seen)} != {count}"
