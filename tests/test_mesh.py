import io
import math

import numpy as np
import pytest

from sfwg.mesh import (
    MeshFormatError,
    MeshTopologyError,
    build_polygonal,
    build_triangular,
    dump_mesh,
    load_mesh,
    validate,
)


def test_triangular_n1_counts():
    m = build_triangular(1)
    assert m.n_vertices == 4
    assert m.n_cells == 2
    assert m.n_edges == 5
    assert int((~m.edge_boundary).sum()) == 1


def test_triangular_n2_counts():
    m = build_triangular(2)
    assert m.n_vertices == 9
    assert m.n_cells == 8
    assert m.n_edges == 16


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_triangular_formula_counts(n):
    m = build_triangular(n)
    assert m.n_vertices == (n + 1) ** 2
    assert m.n_cells == 2 * n * n
    assert m.n_edges == 3 * n * n + 2 * n


def test_triangular_h():
    assert build_triangular(8).h == pytest.approx(math.sqrt(2) / 8)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_refinement_halves_h_exactly(n):
    assert build_triangular(2 * n).h == build_triangular(n).h / 2


@pytest.mark.parametrize("make", [build_triangular, build_polygonal])
def test_areas_partition_unit_square(make):
    for n in (2, 4, 16):
        m = make(n)
        assert abs(m.cell_area.sum() - 1.0) <= 1e-12
        assert (m.cell_area > 0).all()


@pytest.mark.parametrize("make", [build_triangular, build_polygonal])
def test_interior_sigma_cancels(make):
    m = make(4)
    sums = {}
    for i, ces in enumerate(m.cell_edges):
        for e, s in ces:
            assert s in (1, -1)
            if not m.edge_boundary[e]:
                sums[e] = sums.get(e, 0) + s
    assert all(v == 0 for v in sums.values())
    assert len(sums) == int((~m.edge_boundary).sum())


def test_edge_incidence_counts():
    m = build_polygonal(4)
    for e, cells in enumerate(m.edge_cells):
        assert len(cells) == (1 if m.edge_boundary[e] else 2)


def test_polygonal_h_ratio():
    h4 = build_polygonal(4).h
    h8 = build_polygonal(8).h
    assert 0.45 <= h8 / h4 <= 0.55


def test_polygonal_cells_convex_ccw():
    from sfwg.quadrature import polygon_area
    m = build_polygonal(5)
    from sfwg.mesh import _is_convex
    for i in range(m.n_cells):
        poly = m.cell_polygon(i)
        assert polygon_area(poly) > 0
        assert _is_convex(poly)


def test_polygonal_has_hexagons_and_boundary_cells():
    m = build_polygonal(4)
    sizes = {len(c) for c in m.cells}
    assert 6 in sizes
    assert sizes <= {4, 5, 6}


@pytest.mark.parametrize("make,n", [(build_triangular, 3), (build_polygonal, 5)])
def test_determinism_bit_identical(make, n):
    a, b = make(n), make(n)
    assert np.array_equal(a.vertices, b.vertices)
    assert all(np.array_equal(x, y) for x, y in zip(a.cells, b.cells))
    assert np.array_equal(a.edge_normal, b.edge_normal)
    assert a.h == b.h


def test_generator_preconditions():
    with pytest.raises(ValueError):
        build_triangular(0)
    with pytest.raises(ValueError):
        build_polygonal(1)


def test_validate_clean_meshes():
    assert validate(build_triangular(4)) == []
    assert validate(build_polygonal(4)) == []


def test_validate_reports_flipped_sigma():
    m = build_triangular(2)
    # Flip one interior sigma by hand.
    for i, ces in enumerate(m.cell_edges):
        for t, (e, s) in enumerate(ces):
            if not m.edge_boundary[e]:
                m.cell_edges[i][t] = (e, -s)
                report = validate(m)
                assert any(f"edge {e}" in line for line in report)
                return


def test_validate_area_sum_violation():
    # Two triangles covering only half the unit square.
    text = "polymesh 1\nvertices 4\n0 0\n1 0\n1 0.5\n0 0.5\ncells 2\n0 1 2\n0 2 3\n"
    m = load_mesh(io.StringIO(text))
    report = validate(m)
    assert any("areas sum" in line for line in report)
    assert validate(m, unit_square=False) == []


def test_roundtrip_dump_load():
    m = build_polygonal(3)
    buf = io.StringIO()
    dump_mesh(m, buf)
    m2 = load_mesh(io.StringIO(buf.getvalue()))
    assert np.array_equal(m.vertices, m2.vertices)
    assert all(np.array_equal(a, b) for a, b in zip(m.cells, m2.cells))
    assert np.array_equal(m.edges, m2.edges)


def test_load_matches_generator():
    text = "polymesh 1\nvertices 4\n0 0\n1 0\n0 1\n1 1\ncells 2\n0 1 3\n0 3 2\n"
    m = load_mesh(io.StringIO(text))
    g = build_triangular(1)
    assert np.array_equal(m.vertices, g.vertices)
    # Same edge set regardless of ordering.
    assert {tuple(e) for e in m.edges} == {tuple(e) for e in g.edges}
    assert abs(m.h - g.h) < 1e-15


def test_load_rejects_repeated_vertex_index():
    text = "polymesh 1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 1\n"
    with pytest.raises(MeshFormatError, match="repeats"):
        load_mesh(io.StringIO(text))


def test_load_rejects_empty_file():
    with pytest.raises(MeshFormatError):
        load_mesh(io.StringIO(""))


def test_load_rejects_bad_header():
    with pytest.raises(MeshFormatError, match="line 1"):
        load_mesh(io.StringIO("trimesh 2\n"))


def test_load_rejects_bad_cell_count():
    text = "polymesh 1\nvertices 3\n0 0\n1 0\n0 1\ncells x\n0 1 2\n"
    with pytest.raises(MeshFormatError, match="line 6: bad cell count"):
        load_mesh(io.StringIO(text))


def test_load_rejects_out_of_range_index():
    text = "polymesh 1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 7\n"
    with pytest.raises(MeshFormatError, match="out of range"):
        load_mesh(io.StringIO(text))


def test_load_rejects_clockwise_cell():
    text = "polymesh 1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 2 1\n"
    with pytest.raises(MeshTopologyError, match="counter-clockwise"):
        load_mesh(io.StringIO(text))


def test_load_rejects_overshared_edge():
    text = (
        "polymesh 1\nvertices 5\n0 0\n1 0\n0 1\n1 1\n0.5 2\n"
        "cells 3\n0 1 2\n0 1 3\n0 1 4\n"
    )
    with pytest.raises(MeshTopologyError, match="more than 2"):
        load_mesh(io.StringIO(text))


def test_load_skips_comments_and_blanks():
    text = (
        "# a comment\npolymesh 1\n\nvertices 3  # trailing\n0 0\n1 0\n0 1\n"
        "cells 1\n0 1 2\n"
    )
    m = load_mesh(io.StringIO(text))
    assert m.n_cells == 1


def test_load_warns_on_nonconvex_cell():
    text = (
        "polymesh 1\nvertices 5\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n"
        "cells 1\n0 1 2 3 4\n"
    )
    # The dart cell is simple but not convex, which the cell quadrature
    # cannot integrate: it is rejected, not warned about.
    with pytest.raises(MeshTopologyError, match="cell 0 is not convex"):
        load_mesh(io.StringIO(text))
