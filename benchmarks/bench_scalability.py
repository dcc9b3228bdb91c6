"""§IV-B(b) — the scalability challenge.

"While legacy CGRAs are composed of tens of cells … modern CGRAs
contain hundreds to thousands."  HiMap's [26] published comparison is
against DRESC-lineage simulated annealing — hierarchy turns hours of
annealing into seconds of constructive mapping at comparable quality.
This bench reproduces that shape in miniature: array sizes sweep from
4x4 to 6x6 at constant ~60% utilisation; the SA mapper's time blows
up with the array while the hierarchical mapper stays constructive-
fast, and the IIs remain comparable.  (At 8x8 the annealer already
needs minutes — the bench stops where the point is made.)
"""

import time

from repro.arch import presets
from repro.bench import ascii_table
from repro.core.registry import create
from repro.ir import kernels, randdfg

SIZES = [4, 5, 6]


def _sweep():
    # Warm up untimed, on an array the sweep does not time: the first
    # map in a process pays the mapper stack's imports (about a third
    # of a second), which would otherwise land on the 4x4 cell and
    # shrink the growth ratio below.
    warm = presets.simple_cgra(3, 3)
    for mname in ("dresc", "himap"):
        create(mname).map(kernels.kernel("dot_product"), warm)
    rows = []
    times = {"dresc": {}, "himap": {}}
    iis = {"dresc": {}, "himap": {}}
    for size in SIZES:
        cgra = presets.simple_cgra(size, size)
        # ~0.6 ops per cell keeps utilisation constant across sizes.
        n_ops = int(0.6 * size * size)
        dfg = randdfg.layered(n_ops, width=max(2, size // 2), seed=7)
        for mname in ("dresc", "himap"):
            t0 = time.perf_counter()
            mapping = create(mname).map(dfg, cgra)
            dt = time.perf_counter() - t0
            times[mname][size] = dt
            iis[mname][size] = mapping.ii
            rows.append(
                {
                    "cells": size * size,
                    "ops": dfg.op_count(),
                    "mapper": mname,
                    "II": mapping.ii,
                    "time_s": round(dt, 3),
                }
            )
    return rows, times, iis


def test_scalability_sweep(benchmark):
    rows, times, iis = benchmark.pedantic(
        _sweep, iterations=1, rounds=1
    )
    print("\n" + ascii_table(rows, title="§IV-B — scalability sweep"))
    big = SIZES[-1]
    # The claim in miniature: on the largest array the hierarchical
    # mapper is at least 3x faster than annealing...
    assert times["himap"][big] * 3 < times["dresc"][big], (
        f"himap {times['himap'][big]:.1f}s vs dresc"
        f" {times['dresc'][big]:.1f}s"
    )
    # ...at comparable quality (II within 2x of the SA result).
    assert iis["himap"][big] <= 2 * iis["dresc"][big]
    # And annealing's time grows faster than the hierarchy's.
    growth_sa = times["dresc"][big] / max(times["dresc"][SIZES[0]], 1e-9)
    print(
        f"\nSA time growth {SIZES[0]}x{SIZES[0]} -> {big}x{big}:"
        f" x{growth_sa:.1f}; hierarchical stays"
        f" {times['himap'][big]:.2f}s"
    )
    assert growth_sa > 3.0
