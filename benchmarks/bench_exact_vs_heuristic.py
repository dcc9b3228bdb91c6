"""Ablation — the approximate/exact axis of Table I, measured.

"The main feature of the exact based methods is that they can prove
the optimality, whereas heuristics may find the optimal solution, but
without the possibility to prove it."  On small instances: the exact
mappers agree on the optimal II and sometimes beat the heuristics;
the heuristics answer orders of magnitude faster — the §II-C tension
between solution quality and compilation time.
"""

from repro.arch import presets
from repro.bench import MatrixResult, ascii_table, run_matrix

EXACT = ["ilp", "sat", "csp", "bnb"]
HEURISTIC = ["list_sched", "ultrafast", "crimson"]
KERNELS = ["dot_product", "if_select", "butterfly", "sobel_x"]
#: sweeps per run; each cell's time is its best.  On dot_product the
#: fastest exact and heuristic cells both take about 0.3 ms, so a
#: single sweep's verdict is decided by timer noise.
ROUNDS = 3


def _sweep():
    cgra = presets.simple_cgra(3, 3)
    sweeps = [
        run_matrix(EXACT + HEURISTIC, KERNELS, cgra) for _ in range(ROUNDS)
    ]
    results = sweeps[0]
    for cells in zip(*sweeps):
        assert len({(r.ok, r.ii) for r in cells}) == 1, "sweeps disagree"
        cells[0].time_ms = min(r.time_ms for r in cells)
    return results


def test_exact_vs_heuristic(benchmark):
    results = benchmark.pedantic(_sweep, iterations=1, rounds=1)
    print("\n" + ascii_table(
        [r.row() for r in results],
        title="Exact vs heuristic on simple3x3",
    ))
    by: dict[tuple[str, str], MatrixResult] = {
        (r.mapper, r.kernel): r for r in results
    }
    for kernel in KERNELS:
        exact_iis = {
            by[m, kernel].ii for m in EXACT if by[m, kernel].ok
        }
        # All exact mappers that succeed agree on the II they prove.
        assert len(exact_iis) <= 1, f"exact disagreement on {kernel}"
        if not exact_iis:
            continue
        (opt,) = exact_iis
        for m in HEURISTIC:
            if by[m, kernel].ok:
                assert by[m, kernel].ii >= opt, (
                    f"{m} reports II below the proven optimum on {kernel}"
                )
    # Compilation-time tension: the fastest heuristic beats the
    # fastest exact method on every kernel.
    for kernel in KERNELS:
        h = min(by[m, kernel].time_ms for m in HEURISTIC)
        e = min(by[m, kernel].time_ms for m in EXACT)
        assert h < e, f"heuristics should be faster on {kernel}"
