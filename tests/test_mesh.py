import dataclasses
import io
import math
import re

import numpy as np
import pytest

from sfwg.mesh import (
    CellStack,
    MeshFormatError,
    MeshTopologyError,
    _convex,
    build_polygonal,
    build_triangular,
    cell_stacks,
    dump_mesh,
    load_mesh,
    validate,
)
from sfwg.quadrature import polygon_area


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
        area = np.concatenate([polygon_area(s.polygons) for s in make(n).stacks])
        assert abs(area.sum() - 1.0) <= 1e-12
        assert (area > 0).all()


@pytest.mark.parametrize("make", [build_triangular, build_polygonal])
def test_interior_sigma_cancels(make):
    m = make(4)
    sums = np.zeros(m.n_edges)
    seen = np.zeros(m.n_edges, dtype=int)
    for s in m.stacks:
        assert np.isin(s.sigma, (1.0, -1.0)).all()
        np.add.at(sums, s.edges, s.sigma)
        np.add.at(seen, s.edges, 1)
    assert (sums[~m.edge_boundary] == 0).all()
    assert (seen[~m.edge_boundary] == 2).all()


def test_edge_incidence_counts():
    m = build_polygonal(4)
    incidence = (m.edge_cells >= 0).sum(axis=1)
    assert (incidence == np.where(m.edge_boundary, 1, 2)).all()
    assert (m.edge_cells[:, 0] >= 0).all()


def test_polygonal_h_ratio():
    h4 = build_polygonal(4).h
    h8 = build_polygonal(8).h
    assert 0.45 <= h8 / h4 <= 0.55


def test_polygonal_cells_convex_ccw():
    m = build_polygonal(5)
    for s in m.stacks:
        assert (polygon_area(s.polygons) > 0).all()
        assert _convex(s.polygons).all()


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
    assert a.h == b.h


def test_generator_preconditions():
    with pytest.raises(ValueError):
        build_triangular(0)
    with pytest.raises(ValueError):
        build_polygonal(1)


@pytest.mark.parametrize("n", list(range(1, 13)) + [300])
def test_validate_clean_triangular_meshes(n):
    # The h that build_triangular states misses the largest measured
    # diameter by up to 1e-15 of h at n = 5-12, and by 2.3e-14 at n = 300:
    # validate bounds the gap by 4 eps max|vertex|, not relative to h.
    assert validate(build_triangular(n)) == []


def test_validate_clean_meshes():
    for n in range(2, 9):
        assert validate(build_polygonal(n)) == [], n
    assert validate(perturbed(build_polygonal(4), seed=3)) == []


def test_validate_reports_a_mesh_without_cells():
    assert validate(dataclasses.replace(build_triangular(2), cells=[])) == ["mesh has no cells"]


def test_validate_reports_h():
    m = dataclasses.replace(build_triangular(2), h=0.3)
    assert validate(m) == [f"h is 0.3, largest rebuilt diameter {math.sqrt(2) / 2!r}"]


def test_validate_reports_diameters_and_h():
    m = build_triangular(2)
    m.stacks[0].diameter[:] = 0.3
    m.h = 0.3
    report = validate(m)
    assert report[0].startswith("h is 0.3")
    assert report[1:] == [f"cell {c}: diameter differs from the rebuilt mesh" for c in range(8)]


def test_validate_reports_a_diameter_of_the_wrong_length():
    m = build_triangular(2)
    m.stacks[0] = dataclasses.replace(m.stacks[0], diameter=m.stacks[0].diameter[:3])
    assert validate(m) == ["diameter has shape (3,), rebuilt (8,)"]


def test_validate_reports_flipped_sigma():
    m = build_triangular(2)
    # Flip one interior sigma by hand.
    (stack,) = m.stacks
    c, t = np.argwhere(~m.edge_boundary[stack.edges])[0]
    stack.sigma[c, t] *= -1
    e = stack.edges[c, t]
    report = validate(m)
    assert any(f"edge {e}" in line for line in report)


def test_validate_area_sum_violation():
    # Two triangles covering only half the unit square.
    text = "polymesh 1\nvertices 4\n0 0\n1 0\n1 0.5\n0 0.5\ncells 2\n0 1 2\n0 2 3\n"
    m = load_mesh(io.StringIO(text))
    assert validate(m) == ["cell areas sum to 0.5, expected 1"]


@pytest.mark.parametrize("cut", ["vertices", "cell"])
def test_validate_reports_vertex_index_out_of_range(cut):
    m = build_triangular(2)
    if cut == "vertices":
        # Cells 2 to 7 reach past vertex 4.
        m, bad = dataclasses.replace(m, vertices=m.vertices[:5]), [2, 3, 4, 5, 6, 7]
    else:
        m.cells[2] = np.array([0, 1, 99])
        bad = [2]
    assert validate(m) == [f"cell {c}: vertex index out of range for {m.n_vertices} vertices"
                           for c in bad]


def _move_interior_vertices():
    m = build_polygonal(4)
    v = m.vertices.copy()
    v[((v > 0.0) & (v < 1.0)).all(axis=1)] += 1e-3
    m.vertices = v  # leaves every derived array as it was
    return m, "polygons differs"


def _move_a_centroid():
    m = build_triangular(4)
    m.stacks[0].centroid[3] += 0.1
    return m, "cell 3: centroid differs"


@pytest.mark.parametrize("stale", [_move_interior_vertices, _move_a_centroid],
                         ids=["vertices", "centroid"])
def test_validate_reports_stale_geometry(stale):
    mesh, want = stale()
    assert any(want in line for line in validate(mesh))


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


@pytest.mark.parametrize("count", ["x", "-1"])
def test_load_rejects_bad_vertex_count(count):
    text = f"polymesh 1\nvertices {count}\ncells 1\n0 1 2\n"
    with pytest.raises(MeshFormatError, match=f"^line 2: bad vertex count '{count}'$"):
        load_mesh(io.StringIO(text))


TRIANGLE = "polymesh 1\nvertices 3\n0 0\n1 0\n0 1\n"


@pytest.mark.parametrize("text,error,message", [
    ("polymesh 1\nvertex 3\n", MeshFormatError, "line 2: expected 'vertices N'"),
    ("polymesh 1\nvertices 3\n0 0 0\n", MeshFormatError, "line 3: expected 'x y'"),
    ("polymesh 1\nvertices 3\n0 y\n", MeshFormatError, "line 3: bad coordinate"),
    (TRIANGLE + "cell 1\n0 1 2\n", MeshFormatError, "line 6: expected 'cells M'"),
    (TRIANGLE + "cells 1\n0 1 two\n", MeshFormatError, "line 7: bad vertex index"),
    (TRIANGLE + "cells 1\n0 1\n", MeshFormatError, "line 7: cell 0 needs >= 3 vertices"),
    (TRIANGLE + "cells 1\n0 1 2\n0 1 2\n", MeshFormatError,
     "line 8: trailing content after cells"),
    ("polymesh 1\nvertices 3\n0 0\n", MeshFormatError,
     "unexpected end of file: expected vertex coordinates"),
    # Vertices 1 and 2 at one point: the cell's second edge has no length.
    ("polymesh 1\nvertices 4\n0 0\n1 0\n1 0\n0 1\ncells 1\n0 1 2 3\n", MeshTopologyError,
     "edge 1 has zero length"),
], ids=["vertices", "xy", "coordinate", "cells", "index", "short-cell", "trailing", "eof",
        "zero-length"])
def test_load_rejects_malformed_text(text, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
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


def test_load_rejects_folded_cells():
    # Cells 0 and 2 are both CCW but run edge (0, 1) the same way, so they
    # overlap: their sigma on that edge sum to -2 where they should cancel.
    text = (
        "polymesh 1\nvertices 5\n0 0\n1 0\n1 1\n0 1\n0.5 0.25\n"
        "cells 3\n0 1 2\n2 3 0\n0 1 4\n"
    )
    with pytest.raises(MeshTopologyError,
                       match=r"^cells 0 and 2 run their shared edge \(0, 1\) in the same direction$"):
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


def test_triangular_edge_numbering_and_sigma_by_hand():
    # Edges are numbered as they first appear, cell by cell and local edge
    # by local edge; sigma is +1 where a cell runs along an edge from its
    # higher to its lower vertex index.
    m = build_triangular(1)
    assert m.edges.tolist() == [[0, 1], [1, 3], [0, 3], [2, 3], [0, 2]]
    (s,) = m.stacks
    assert s.edges.tolist() == [[0, 1, 2], [2, 3, 4]]
    assert s.sigma.tolist() == [[-1, -1, 1], [-1, 1, 1]]
    assert m.edge_cells.tolist() == [[0, -1], [0, -1], [0, 1], [1, -1], [1, -1]]

    m = build_triangular(2)
    assert m.edges.tolist() == [
        [0, 1], [1, 4], [0, 4], [3, 4], [0, 3], [1, 2], [2, 5], [1, 5],
        [4, 5], [4, 7], [3, 7], [6, 7], [3, 6], [5, 8], [4, 8], [7, 8],
    ]
    (s,) = m.stacks
    assert s.cells.tolist() == list(range(8))
    assert s.edges.tolist() == [
        [0, 1, 2], [2, 3, 4], [5, 6, 7], [7, 8, 1],
        [3, 9, 10], [10, 11, 12], [8, 13, 14], [14, 15, 9],
    ]
    assert s.sigma.tolist() == [[-1, -1, 1], [-1, 1, 1]] * 4
    assert m.edge_cells.tolist() == [
        [0, -1], [0, 3], [0, 1], [1, 4], [1, -1], [2, -1], [2, -1], [2, 3],
        [3, 6], [4, 7], [4, 5], [5, -1], [5, -1], [6, -1], [6, 7], [7, -1],
    ]
    assert m.edge_boundary.tolist() == (m.edge_cells[:, 1] < 0).tolist()


def test_cell_stacks_are_the_stored_stacks():
    m = build_polygonal(4)
    assert cell_stacks(m) is m.stacks
    assert [s.polygons.shape[1] for s in m.stacks] == [4, 5, 6]
    cells = np.concatenate([s.cells for s in m.stacks])
    assert sorted(cells.tolist()) == list(range(m.n_cells))
    for s in m.stacks:
        assert np.array_equal(s.polygons, m.vertices[np.stack([m.cells[c] for c in s.cells])])
    # A slice by rows takes those rows of every field.
    full, rows = m.stacks[2], [3, 0]
    got = full.rows(rows)
    for f in dataclasses.fields(CellStack):
        assert np.array_equal(getattr(got, f.name), getattr(full, f.name)[rows]), f.name


# A triangle taken twice round, through two copies of its vertices: edges
# t and t+3 lie on one another, but no two of its edges cross.
DOUBLY_WOUND = "polymesh 1\nvertices 6\n" + "0 0\n1 0\n0 1\n" * 2 + "cells 1\n0 1 2 3 4 5\n"


def test_load_rejects_self_intersecting_cell():
    # A pentagram: the vertices of a regular pentagon taken in the order
    # 0 2 4 1 3.  It and the doubly wound triangle turn left at every
    # vertex and their shoelace areas are positive, so only the simplicity
    # check rejects them.
    angle = np.pi / 2 + 2 * np.pi * np.arange(5) / 5
    pentagon = 0.5 + 0.4 * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    star = pentagon[[0, 2, 4, 1, 3]]
    twice = np.tile(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), (2, 1))
    for cell in star, twice:
        assert _convex(cell[None]).all() and polygon_area(cell) > 0
    star_text = ("polymesh 1\nvertices 5\n" + "".join(f"{x} {y}\n" for x, y in pentagon)
                 + "cells 1\n0 2 4 1 3\n")
    for text in star_text, DOUBLY_WOUND:
        with pytest.raises(MeshTopologyError, match="^cell 0 is not a simple polygon$"):
            load_mesh(io.StringIO(text))


def test_load_names_the_lowest_bad_cell():
    # Cell 1 (a dart, in the stack of pentagons) is not convex and cell 2
    # (a triangle) is clockwise: the error names cell 1.
    text = (
        "polymesh 1\nvertices 5\n0 0\n1 0\n1 1\n0 1\n0.5 0.5\n"
        "cells 3\n0 1 2\n0 1 2 3 4\n0 2 1\n"
    )
    with pytest.raises(MeshTopologyError, match="^cell 1 is not convex$"):
        load_mesh(io.StringIO(text))


@pytest.mark.parametrize("coord", ["nan 0", "0 inf", "-inf 1"])
def test_load_rejects_non_finite_coordinate(coord):
    text = f"polymesh 1\nvertices 3\n0 0\n{coord}\n0 1\ncells 1\n0 1 2\n"
    with pytest.raises(MeshFormatError, match="^line 4: non-finite coordinate$"):
        load_mesh(io.StringIO(text))


def test_validate_reports_non_finite_vertex():
    m = build_triangular(2)
    m.vertices[4, 1] = np.nan
    assert "vertex 4: non-finite coordinate" in validate(m)


def test_load_rejects_empty_mesh():
    text = "polymesh 1\nvertices 3\n0 0\n1 0\n0 1\ncells 0\n"
    with pytest.raises(MeshFormatError, match="^line 6: a mesh needs at least one cell$"):
        load_mesh(io.StringIO(text))


def perturbed(mesh, seed, amplitude=0.1):
    """The mesh read back from text after its interior vertices moved by up
    to ``amplitude`` times the mesh size, so that no two cells are alike."""
    rng = np.random.default_rng(seed)
    v = mesh.vertices.copy()
    inside = ((v > 0.0) & (v < 1.0)).all(axis=1)
    v[inside] += rng.uniform(-amplitude, amplitude, (int(inside.sum()), 2)) * mesh.h
    buf = io.StringIO()
    dump_mesh(dataclasses.replace(mesh, vertices=v), buf)
    return load_mesh(io.StringIO(buf.getvalue()))


def cell_frames(mesh):
    """Every cell's centroid (n_cells, 2) and diameter (n_cells,), in cell
    order, read from the rows of the mesh's stacks."""
    centroid, diameter = np.empty((mesh.n_cells, 2)), np.empty(mesh.n_cells)
    for s in mesh.stacks:
        centroid[s.cells], diameter[s.cells] = s.centroid, s.diameter
    return centroid, diameter


def edge_normal(mesh):
    """The fixed unit normal n_e of every edge (n_edges, 2): its lo -> hi
    tangent turned by +90 degrees."""
    t = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    t /= np.hypot(t[:, 0], t[:, 1])[:, None]
    return np.stack([-t[:, 1], t[:, 0]], axis=1)


def shape_count(mesh):
    return [len(s.shapes[0].cells) for s in mesh.stacks]


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_triangular_levels_have_two_shapes(n):
    assert shape_count(build_triangular(n)) == [2]


def lattice_shape_count(mesh, n):
    """Shapes per stack of ``build_polygonal(n)``, counted exactly on its
    integer lattice: x in steps of 1/(2n), y in steps of 1/(3m)."""
    m = max(2, round(4 * n / 3))
    counts = []
    for s in mesh.stacks:
        steps = np.rint((s.polygons[:, 1:] - s.polygons[:, :1]) * [2 * n, 3 * m])
        key = np.concatenate([steps.reshape(len(s.cells), -1), s.sigma], axis=1)
        counts.append(len(np.unique(key, axis=0)))
    return counts


def test_honeycomb_shapes():
    # Translates with equal sigma share a shape.  On the lattice the cells
    # of n=32 have 4 distinct quadrilaterals, 3 pentagons and 2 hexagons,
    # those of n=24 have 2, 4 and 2; no level may split a lattice shape.
    assert lattice_shape_count(build_polygonal(32), 32) == [4, 3, 2]
    assert lattice_shape_count(build_polygonal(24), 24) == [2, 4, 2]
    for n in range(2, 65):
        mesh = build_polygonal(n)
        assert shape_count(mesh) == lattice_shape_count(mesh, n), f"n={n}"


@pytest.mark.parametrize("make", [build_triangular, build_polygonal])
def test_perturbed_mesh_has_one_shape_per_cell(make):
    m = perturbed(make(4), seed=3)
    assert sum(shape_count(m)) == m.n_cells


def test_shape_needs_equal_sigma_and_first_vertex():
    # Four congruent triangles apart from one another: cell 1 is cell 0
    # moved; cell 2 is too, but its vertex list starts at another corner;
    # cell 3 is too, but its vertices are numbered the other way round, so
    # that every sigma flips.
    corners = np.array([[0.0, 0.0], [0.3, 0.1], [0.1, 0.2]])
    vertices = np.concatenate([corners + [x, 0.0] for x in (0.0, 1.0, 2.0, 3.0)])
    vertices[9:] = vertices[9:][::-1]
    text = ("polymesh 1\nvertices 12\n" + "".join(f"{x} {y}\n" for x, y in vertices.tolist())
            + "cells 4\n0 1 2\n3 4 5\n7 8 6\n11 10 9\n")
    (s,) = load_mesh(io.StringIO(text)).stacks
    assert s.sigma[3].tolist() == (-s.sigma[0]).tolist()
    assert s.shape[0] == s.shape[1]
    assert len({s.shape[0], s.shape[2], s.shape[3]}) == 3


GEOMETRY_MESHES = pytest.mark.parametrize(
    "mesh", [build_triangular(3), build_polygonal(8), perturbed(build_polygonal(4), seed=5)],
    ids=["tri", "poly", "perturbed"])


@GEOMETRY_MESHES
def test_stack_geometry_agrees_with_the_mesh(mesh):
    for s in mesh.stacks:
        for c, cell in enumerate(s.cells):
            # The centroid and diameter of the cell's own vertex cycle.
            p = mesh.vertices[mesh.cells[cell]]
            q = np.roll(p, -1, axis=0)
            cross = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
            centroid = ((p + q) * cross[:, None]).sum(axis=0) / (3 * cross.sum())
            assert np.allclose(s.centroid[c], centroid, rtol=0, atol=1e-15)
            gap = np.linalg.norm(p[:, None] - p[None], axis=-1).max()
            assert s.diameter[c] == pytest.approx(gap, rel=1e-15)
        # The derived edge geometry: each local edge's endpoints lo -> hi
        # of its global edge, and the outward normal sigma n_e.
        p0, p1, normal = s.edge_geometry()
        assert np.array_equal(p0, mesh.vertices[mesh.edges[s.edges, 0]])
        assert np.array_equal(p1, mesh.vertices[mesh.edges[s.edges, 1]])
        assert np.array_equal(normal, s.sigma[..., None] * edge_normal(mesh)[s.edges])
        # Outward: the normal of local edge t, from vertex t to t+1 of a CCW
        # cell, is its tangent turned clockwise.
        d = np.roll(s.polygons, -1, axis=1) - s.polygons
        assert np.allclose(normal * np.linalg.norm(d, axis=-1)[..., None],
                           np.stack([d[..., 1], -d[..., 0]], axis=-1), atol=1e-14)
        assert np.allclose(np.linalg.norm(normal, axis=-1), 1.0, atol=1e-15)


@GEOMETRY_MESHES
def test_slices_agree_with_their_shapes(mesh):
    for s in mesh.stacks + [s.rows(np.arange(0, len(s.cells), 3)) for s in mesh.stacks]:
        ref, of = s.shapes
        # One row per shape: its first cell, in order.
        assert np.array_equal(ref.cells, s.cells[np.unique(of, return_index=True)[1]])
        assert np.array_equal(ref.shape[of], s.shape)
        assert len(ref.cells) == len(np.unique(s.shape))
        # Cell c is its shape's cell moved by the offset of its first vertex.
        # Centroids carry the roundoff of polygon_centroid, up to a few
        # 1e-12 of the diameter on the honeycomb.
        move = s.polygons[:, :1] - ref.polygons[of, :1]
        d = s.diameter.max()
        assert np.array_equal(ref.sigma[of], s.sigma)
        (rp0, rp1, rnormal), (p0, p1, normal) = ref.edge_geometry(), s.edge_geometry()
        for got, want, tol in ((ref.polygons[of], s.polygons, 1e-14),
                               (rp0[of], p0, 1e-14), (rp1[of], p1, 1e-14),
                               (ref.centroid[of][:, None], s.centroid[:, None], 1e-11)):
            assert np.allclose(got + move, want, rtol=0, atol=tol * d)
        assert np.allclose(ref.diameter[of], s.diameter, rtol=1e-14, atol=0)
        assert np.allclose(rnormal[of], normal, rtol=0, atol=1e-14)
