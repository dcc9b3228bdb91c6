"""Stress-aware multi-mapping tests ([39])."""

import pytest

from repro.arch import presets
from repro.core.exceptions import MapFailure
from repro.ir import kernels
from repro.mappers.multimap import (
    multi_map,
    stress_profile,
    stress_reduction,
)


@pytest.fixture(scope="module")
def cgra():
    return presets.simple_cgra(4, 4)


def test_all_mappings_valid(cgra):
    maps = multi_map(kernels.sobel_x(), cgra, n_maps=3)
    assert len(maps) == 3
    for m in maps:
        assert m.validate() == []
        assert m.mapper == "multi_map"


def test_mappings_use_different_cells(cgra):
    maps = multi_map(kernels.dot_product(), cgra, n_maps=4)
    cell_sets = [frozenset(m.binding.values()) for m in maps]
    # A 2-op kernel on 16 cells: rotation must not reuse the same pair.
    assert len(set(cell_sets)) > 1


def test_stress_reduction_above_one(cgra):
    maps = multi_map(kernels.sobel_x(), cgra, n_maps=4)
    assert stress_reduction(maps) > 1.0


def test_stress_profile_counts(cgra):
    maps = multi_map(kernels.vector_add(), cgra, n_maps=2)
    wear = stress_profile(maps)
    assert sum(wear.values()) == sum(len(m.binding) for m in maps)


def test_single_map_requested(cgra):
    maps = multi_map(kernels.dot_product(), cgra, n_maps=1)
    assert len(maps) == 1
    assert stress_reduction(maps) == 1.0


def test_impossible_kernel_raises():
    cgra = presets.simple_cgra(2, 2, n_contexts=1)
    with pytest.raises(MapFailure):
        multi_map(kernels.conv3x3(), cgra, n_maps=2)


def test_failure_reports_producer_and_attempts():
    """The first round's II attempts go through the shared loop."""
    cgra = presets.simple_cgra(2, 2, n_contexts=2)
    with pytest.raises(MapFailure) as info:
        multi_map(kernels.fir4(), cgra, n_maps=2)
    assert info.value.mapper == "multi_map"
    assert info.value.attempts > 0


def test_saturated_array_returns_partial_set():
    """On a tiny array the rotation may run out of fresh placements
    but must still return the mappings it found."""
    cgra = presets.simple_cgra(2, 2)
    maps = multi_map(kernels.dot_product(), cgra, n_maps=8)
    assert 1 <= len(maps) <= 8
    for m in maps:
        assert m.validate() == []
