"""CGRA array model tests."""

import pytest

from repro.arch import presets
from repro.arch.cell import CellKind, make_cell
from repro.arch.cgra import CGRA
from repro.arch.topology import topology_links
from repro.ir.dfg import Op


def test_simple_cgra_shape():
    cgra = presets.simple_cgra(4, 4)
    assert cgra.n_cells == 16
    assert cgra.width == cgra.height == 4
    assert cgra.is_connected()


def test_cell_count_mismatch_rejected():
    cells = [make_cell(0, 0, 0, CellKind.ALU)]
    with pytest.raises(ValueError, match="expected 4 cells"):
        CGRA("bad", 2, 2, cells, [])


def test_cell_ids_must_be_dense():
    cells = [make_cell(i * 2, i % 2, i // 2, CellKind.ALU) for i in range(4)]
    with pytest.raises(ValueError, match="cell ids"):
        CGRA("bad", 2, 2, cells, [])


def test_self_link_rejected():
    cells = [make_cell(i, i % 2, i // 2, CellKind.ALU) for i in range(4)]
    with pytest.raises(ValueError, match="self-link"):
        CGRA("bad", 2, 2, cells, [(0, 0)])


def test_link_to_unknown_cell_rejected():
    cells = [make_cell(i, i % 2, i // 2, CellKind.ALU) for i in range(4)]
    with pytest.raises(ValueError, match="unknown cell"):
        CGRA("bad", 2, 2, cells, [(0, 9)])


def test_neighbors_match_mesh():
    cgra = presets.simple_cgra(3, 3)
    # Centre cell (1,1) = cid 4 has all four neighbours.
    assert cgra.neighbors_out(4) == [1, 3, 5, 7]
    assert cgra.neighbors_in(4) == [1, 3, 5, 7]
    # Corner cell 0 has two.
    assert cgra.neighbors_out(0) == [1, 3]


def test_cell_at_and_coords_roundtrip():
    cgra = presets.simple_cgra(4, 2)
    c = cgra.cell_at(3, 1)
    assert c.cid == 7
    assert cgra.coords(7) == (3, 1)
    with pytest.raises(IndexError):
        cgra.cell_at(4, 0)


def test_distance_is_manhattan_on_mesh():
    cgra = presets.simple_cgra(4, 4)
    assert cgra.distance(0, 0) == 0
    assert cgra.distance(0, 3) == 3
    assert cgra.distance(0, 15) == 6


def test_distance_shrinks_on_torus():
    mesh = presets.simple_cgra(4, 4)
    torus = presets.simple_cgra(4, 4, topology="torus")
    assert torus.distance(0, 3) == 1
    assert torus.distance(0, 3) < mesh.distance(0, 3)


def test_candidates_respect_heterogeneity():
    cgra = presets.heterogeneous(4, 4)
    load_cells = cgra.candidates(Op.LOAD)
    assert load_cells  # column 0
    assert all(cgra.coords(c)[0] == 0 for c in load_cells)
    add_cells = cgra.candidates(Op.ADD)
    assert add_cells
    assert not set(add_cells) & set(load_cells)  # MEM cells have no ALU


@pytest.mark.parametrize("name", ["simple4x4", "adres4x4", "hetero4x4"])
def test_cell_supports_matches_cell_and_supporting_cells(name):
    cgra = presets.by_name(name)
    for op in Op:
        assert [
            c for c in range(cgra.n_cells) if cgra.cell_supports(c, op)
        ] == list(cgra.supporting_cells(op))
        for c in range(cgra.n_cells):
            assert cgra.cell_supports(c, op) == cgra.cell(c).supports(op)


def test_memory_cells_left_column_preset():
    cgra = presets.simple_cgra(4, 4, mem_cells="left")
    assert cgra.memory_cells() == [0, 4, 8, 12]


def test_preset_registry():
    for name in presets.PRESETS:
        cgra = presets.by_name(name)
        assert cgra.n_cells >= 4
        assert cgra.is_connected()
    with pytest.raises(KeyError, match="unknown preset"):
        presets.by_name("weird")


def test_preset_error_lists_every_name_sorted():
    """The unknown-preset message is the CLI's discovery surface: it
    must enumerate the full registry, sorted."""
    with pytest.raises(KeyError) as ei:
        presets.by_name("nope")
    msg = str(ei.value)
    assert str(sorted(presets.PRESETS)) in msg


def test_preset_fingerprints_roundtrip_and_distinct():
    """Every preset rebuilds to the same fingerprint (they are pure
    factories), and no two presets collide."""
    from repro.cache.fingerprint import arch_fingerprint

    fps = {}
    for name in presets.PRESETS:
        first = arch_fingerprint(presets.by_name(name))
        again = arch_fingerprint(presets.by_name(name))
        assert first == again, name
        fps[name] = first
    assert len(set(fps.values())) == len(fps)


def test_equal_presets_share_distance_table():
    """Rebuilding a preset must reuse the module-level all-pairs
    table rather than re-running the BFS sweep."""
    a = presets.by_name("simple8x8")
    b = presets.by_name("simple8x8")
    assert a.distance_table() is b.distance_table()
    assert a.distance(0, a.n_cells - 1) == (a.width - 1) + (a.height - 1)


def test_adres_like_has_diagonals_and_left_memory():
    cgra = presets.adres_like(4, 4)
    assert cgra.has_link(0, 5)  # diagonal
    assert set(cgra.memory_cells()) == {0, 4, 8, 12}


def test_hycube_like_bypass_routing():
    cgra = presets.hycube_like()
    assert cgra.route_shares_fu is False
    assert cgra.hw_loop is True


def test_render_shows_grid():
    text = presets.heterogeneous(4, 4).render()
    lines = text.splitlines()
    assert len(lines) == 5  # header + 4 rows
    assert "M" in text and "A" in text and "." in text


def test_duplicate_links_deduplicated():
    cells = [make_cell(i, i % 2, i // 2, CellKind.ALU) for i in range(4)]
    cgra = CGRA("dup", 2, 2, cells, [(0, 1), (0, 1), (1, 0)])
    assert len(cgra.links) == 2
    assert cgra.neighbors_out(0) == [1]
