"""CSP solver tests."""

import pytest

from repro.solvers.csp import CSP, CSPTimeout, CSPUnsat


def test_trivial_assignment():
    csp = CSP()
    csp.add_var("x", [1, 2, 3])
    sol = csp.solve()
    assert sol["x"] in (1, 2, 3)


def test_binary_constraint_respected():
    csp = CSP()
    csp.add_var("x", range(5))
    csp.add_var("y", range(5))
    csp.add_constraint(("x", "y"), lambda x, y: x + y == 7)
    sol = csp.solve()
    assert sol["x"] + sol["y"] == 7


def test_unsat_detected():
    csp = CSP()
    csp.add_var("x", [0, 1])
    csp.add_var("y", [0, 1])
    csp.add_constraint(("x", "y"), lambda x, y: x + y == 5)
    with pytest.raises(CSPUnsat):
        csp.solve()


def test_empty_domain_rejected_eagerly():
    csp = CSP()
    with pytest.raises(CSPUnsat):
        csp.add_var("x", [])


def test_duplicate_var_rejected():
    csp = CSP()
    csp.add_var("x", [1])
    with pytest.raises(ValueError):
        csp.add_var("x", [2])


def test_unknown_var_in_constraint():
    csp = CSP()
    csp.add_var("x", [1])
    with pytest.raises(KeyError):
        csp.add_constraint(("x", "nope"), lambda a, b: True)
    with pytest.raises(KeyError):
        csp.add_all_different(["x", "nope"])


def test_all_different():
    csp = CSP()
    for v in "abc":
        csp.add_var(v, [1, 2, 3])
    csp.add_all_different(["a", "b", "c"])
    sol = csp.solve()
    assert len({sol["a"], sol["b"], sol["c"]}) == 3


def test_all_different_unsat_when_domain_too_small():
    csp = CSP()
    for v in "abc":
        csp.add_var(v, [1, 2])
    csp.add_all_different(["a", "b", "c"])
    with pytest.raises(CSPUnsat):
        csp.solve()


@pytest.mark.parametrize("n", [4, 6, 8])
def test_n_queens(n):
    csp = CSP()
    for i in range(n):
        csp.add_var(f"q{i}", range(n))
    csp.add_all_different([f"q{i}" for i in range(n)])
    for i in range(n):
        for j in range(i + 1, n):
            csp.add_constraint(
                (f"q{i}", f"q{j}"),
                lambda a, b, d=j - i: abs(a - b) != d,
            )
    sol = csp.solve()
    cols = [sol[f"q{i}"] for i in range(n)]
    assert len(set(cols)) == n
    for i in range(n):
        for j in range(i + 1, n):
            assert abs(cols[i] - cols[j]) != j - i


def test_three_queens_unsat():
    n = 3
    csp = CSP()
    for i in range(n):
        csp.add_var(f"q{i}", range(n))
    csp.add_all_different([f"q{i}" for i in range(n)])
    for i in range(n):
        for j in range(i + 1, n):
            csp.add_constraint(
                (f"q{i}", f"q{j}"),
                lambda a, b, d=j - i: abs(a - b) != d,
            )
    with pytest.raises(CSPUnsat):
        csp.solve()


def test_ternary_constraint():
    csp = CSP()
    for v in "xyz":
        csp.add_var(v, range(4))
    csp.add_constraint(("x", "y", "z"), lambda x, y, z: x + y + z == 9)
    sol = csp.solve()
    assert sol["x"] + sol["y"] + sol["z"] == 9


def test_ac3_prunes_before_search():
    csp = CSP()
    csp.add_var("x", range(10))
    csp.add_var("y", [9])
    csp.add_constraint(("x", "y"), lambda x, y: x > y)
    with pytest.raises(CSPUnsat, match="AC-3"):
        csp.solve()


def test_node_limit():
    n = 8
    csp = CSP()
    for i in range(n):
        csp.add_var(f"v{i}", range(n))
    # Impossible global constraint that only fails when all assigned.
    csp.add_constraint(
        tuple(f"v{i}" for i in range(n)),
        lambda *vals: sum(vals) == -1,
    )
    with pytest.raises((CSPTimeout, CSPUnsat)):
        csp.solve(node_limit=50)


def test_graph_coloring():
    # Petersen-ish: a 5-cycle needs 3 colours.
    csp = CSP()
    for i in range(5):
        csp.add_var(f"n{i}", range(3))
    for i in range(5):
        csp.add_constraint(
            (f"n{i}", f"n{(i + 1) % 5}"), lambda a, b: a != b
        )
    sol = csp.solve()
    for i in range(5):
        assert sol[f"n{i}"] != sol[f"n{(i + 1) % 5}"]


def test_value_hints_prefer_hinted_solution():
    csp = CSP()
    for v in "abc":
        csp.add_var(v, range(6))
    csp.add_constraint(("a", "b"), lambda a, b: a < b)
    csp.add_constraint(("b", "c"), lambda b, c: b < c)
    hinted = csp.solve(value_hints={"a": 2, "b": 3, "c": 4})
    assert hinted == {"a": 2, "b": 3, "c": 4}


def test_value_hints_do_not_break_completeness():
    """A hint pointing at an infeasible value only reorders the search."""
    csp = CSP()
    csp.add_var("x", range(3))
    csp.add_var("y", range(3))
    csp.add_constraint(("x", "y"), lambda x, y: x + y == 4)
    sol = csp.solve(value_hints={"x": 0, "y": 0})  # 0+0 != 4
    assert sol["x"] + sol["y"] == 4


def _mod3(v):
    return v % 3


def test_keyed_all_different():
    csp = CSP()
    for v in "abc":
        csp.add_var(v, range(9))
    csp.add_all_different(["a", "b", "c"], key=_mod3)
    csp.add_constraint(("a", "b"), lambda a, b: a < b)
    sol = csp.solve()
    assert len({sol[v] % 3 for v in "abc"}) == 3
    assert sol["a"] < sol["b"]


def test_keyed_all_different_unsat():
    """Distinct values are not enough: three values, two keys."""
    csp = CSP()
    for v in "abc":
        csp.add_var(v, [0, 1, 3, 4])
    csp.add_all_different(["a", "b", "c"], key=_mod3)
    with pytest.raises(CSPUnsat, match="exhausted"):
        csp.solve()


def test_keyed_all_different_singleton_key_pruned_by_ac3():
    """A domain left with one key takes it from its peers before the
    search starts, and the pruning cascades: a's key 0 leaves b only
    key 1, which leaves c nothing."""
    csp = CSP()
    csp.add_var("a", [0, 3])
    csp.add_var("b", [1, 6])
    csp.add_var("c", [1, 4, 9])
    csp.add_all_different(["a", "b", "c"], key=_mod3)
    with pytest.raises(CSPUnsat, match="AC-3"):
        csp.solve()
    assert csp.stats_nodes == 0

