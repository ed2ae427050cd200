"""2D polygonal meshes of the unit square with edge-orientation data.

A Mesh carries, besides vertices and cells, one fixed unit normal per edge
(the lower-to-higher vertex-index tangent rotated by +90 degrees) and, per
cell, the sign sigma = n_e . n_outward for each of its edges.  The weak
operators consume exactly this data.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import polygon_area, polygon_centroid

AREA_TOL = 1e-12


class MeshError(Exception):
    pass


class MeshFormatError(MeshError):
    pass


class MeshTopologyError(MeshError):
    pass


class MeshGenerationError(MeshError):
    pass


@dataclass
class Mesh:
    """Immutable-by-convention polygonal mesh; build via the module functions."""

    vertices: np.ndarray                 # (nv, 2)
    cells: list                          # list of CCW vertex-index arrays
    edges: np.ndarray = field(default=None)        # (ne, 2), lo < hi
    edge_normal: np.ndarray = field(default=None)  # (ne, 2) fixed unit normals
    edge_boundary: np.ndarray = field(default=None)  # (ne,) bool
    edge_cells: list = field(default=None)          # per edge, incident cells
    cell_edges: list = field(default=None)  # per cell, list of (edge, sigma)
    cell_area: np.ndarray = field(default=None)
    cell_centroid: np.ndarray = field(default=None)
    cell_diameter: np.ndarray = field(default=None)
    h: float = 0.0

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_edges(self):
        return len(self.edges)

    def cell_polygon(self, i):
        return self.vertices[self.cells[i]]

    def edge_endpoints(self, e):
        """(p_lo, p_hi) with lo the lower global vertex index."""
        a, b = self.edges[e]
        return self.vertices[a], self.vertices[b]

    def edge_length(self, e):
        p0, p1 = self.edge_endpoints(e)
        return float(np.hypot(*(p1 - p0)))


@dataclass
class CellStack:
    """The cells of a mesh that have one vertex count, as stacked arrays.

    Local edge t of a cell runs from its vertex t to vertex t+1, as in
    ``Mesh.cell_edges``.
    """

    cells: np.ndarray     # (nc,) cell indices, increasing
    polygons: np.ndarray  # (nc, nv, 2) CCW vertex coordinates
    edges: np.ndarray     # (nc, nv) global index of each local edge
    sigma: np.ndarray     # (nc, nv) n_e . n_outward, as float


def cell_stacks(mesh: Mesh, cells=None) -> list:
    """The mesh's cells (or the given ones) grouped by vertex count.

    Stacks come in increasing vertex count, cells within one in increasing
    index.
    """
    subset = np.arange(mesh.n_cells) if cells is None else np.unique(cells)
    nverts = np.array([len(mesh.cells[c]) for c in subset])
    stacks = []
    for nv in np.unique(nverts):
        cells = subset[nverts == nv]
        stacks.append(CellStack(
            cells=cells,
            polygons=mesh.vertices[np.stack([mesh.cells[c] for c in cells])],
            edges=np.array([[e for e, _ in mesh.cell_edges[c]] for c in cells]),
            sigma=np.array([[sg for _, sg in mesh.cell_edges[c]] for c in cells],
                           dtype=float),
        ))
    return stacks


def _cell_diameter(polygon):
    d = polygon[:, None, :] - polygon[None, :, :]
    return float(np.sqrt((d * d).sum(axis=-1).max()))


def _is_convex(polygon):
    n = len(polygon)
    for i in range(n):
        a = polygon[i]
        b = polygon[(i + 1) % n]
        c = polygon[(i + 2) % n]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross < 0.0:
            return False
    return True


def _segments_intersect(p, q, r, s):
    # Proper intersection of open segments pq and rs.
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if v == 0 else (1 if v > 0 else -1)

    o1, o2 = orient(p, q, r), orient(p, q, s)
    o3, o4 = orient(r, s, p), orient(r, s, q)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def _is_simple(polygon):
    n = len(polygon)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_intersect(
                polygon[i], polygon[(i + 1) % n], polygon[j], polygon[(j + 1) % n]
            ):
                return False
    return True


def _build(vertices, cells, check_simple=False, diameter=None):
    """Derive all edge/cell data from vertices and CCW cell cycles."""
    vertices = np.asarray(vertices, dtype=float)
    cells = [np.asarray(c, dtype=np.intp) for c in cells]

    areas = np.empty(len(cells))
    centroids = np.empty((len(cells), 2))
    diameters = np.empty(len(cells))
    for i, c in enumerate(cells):
        if len(c) < 3:
            raise MeshTopologyError(f"cell {i} has fewer than 3 vertices")
        if len(np.unique(c)) != len(c):
            raise MeshTopologyError(f"cell {i} repeats a vertex index")
        poly = vertices[c]
        a = polygon_area(poly)
        if a <= 0.0:
            raise MeshTopologyError(
                f"cell {i} is not counter-clockwise (signed area {a:g})"
            )
        if check_simple:
            if not _is_simple(poly):
                raise MeshTopologyError(f"cell {i} is not a simple polygon")
            if not _is_convex(poly):
                # quad_cell fans the cell from its centroid, which is
                # exact only on convex cells.
                raise MeshTopologyError(f"cell {i} is not convex")
        areas[i] = a
        centroids[i] = polygon_centroid(poly)
        diameters[i] = diameter if diameter is not None else _cell_diameter(poly)

    edge_index = {}
    edges = []
    edge_cells = []
    cell_edges = []
    for i, c in enumerate(cells):
        this = []
        for t in range(len(c)):
            a, b = int(c[t]), int(c[(t + 1) % len(c)])
            key = (a, b) if a < b else (b, a)
            e = edge_index.get(key)
            if e is None:
                e = len(edges)
                edge_index[key] = e
                edges.append(key)
                edge_cells.append([])
            if len(edge_cells[e]) >= 2:
                raise MeshTopologyError(f"edge {key} incident to more than 2 cells")
            edge_cells[e].append(i)
            this.append(e)
        cell_edges.append(this)

    edges = np.array(edges, dtype=np.intp)
    n_edges = len(edges)
    normals = np.empty((n_edges, 2))
    for e in range(n_edges):
        lo, hi = edges[e]
        t = vertices[hi] - vertices[lo]
        length = np.hypot(t[0], t[1])
        if length == 0.0:
            raise MeshTopologyError(f"edge {e} has zero length")
        t /= length
        normals[e] = (-t[1], t[0])  # tangent rotated +90 degrees

    # sigma = n_e . n_outward per (cell, edge); the two must be colinear.
    signed_cell_edges = []
    for i, c in enumerate(cells):
        this = []
        for t, e in enumerate(cell_edges[i]):
            a = vertices[c[t]]
            b = vertices[c[(t + 1) % len(c)]]
            d = b - a
            n_out = np.array([d[1], -d[0]]) / np.hypot(d[0], d[1])
            dot = float(normals[e] @ n_out)
            if abs(abs(dot) - 1.0) > 1e-9:
                raise MeshTopologyError(
                    f"edge {e} normal not colinear with cell {i} outward normal"
                )
            this.append((e, 1 if dot > 0 else -1))
        signed_cell_edges.append(this)

    boundary = np.array([len(ec) == 1 for ec in edge_cells])
    return Mesh(
        vertices=vertices,
        cells=cells,
        edges=edges,
        edge_normal=normals,
        edge_boundary=boundary,
        edge_cells=edge_cells,
        cell_edges=signed_cell_edges,
        cell_area=areas,
        cell_centroid=centroids,
        cell_diameter=diameters,
        h=float(diameters.max()),
    )


def build_triangular(n: int) -> Mesh:
    """Uniform n x n triangulation of the unit square.

    Each grid square is split by its lower-left to upper-right diagonal.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    vertices = np.array(
        [(i / n, j / n) for j in range(n + 1) for i in range(n + 1)]
    )

    def vid(i, j):
        return j * (n + 1) + i

    cells = []
    for j in range(n):
        for i in range(n):
            a = vid(i, j)
            b = vid(i + 1, j)
            c = vid(i + 1, j + 1)
            d = vid(i, j + 1)
            cells.append([a, b, c])
            cells.append([a, c, d])
    # All cells are congruent right triangles; the diameter is the diagonal.
    return _build(vertices, cells, diameter=math.sqrt(2.0) / n)


def build_polygonal(n: int) -> Mesh:
    """Deterministic hexagon-dominant mesh of the unit square.

    A stretched honeycomb with ``n`` hexagon columns, laid out on an integer
    lattice (x multiples of 1/(2n), y multiples of 1/(3m)) so that clipping
    to the square is exact: interior cells are hexagons, boundary cells
    convex quadrilaterals and pentagons.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    m = max(2, round(4 * n / 3))  # rows; keeps cells near unit aspect ratio
    px_max, py_max = 2 * n, 3 * m

    def clip(poly, axis, bound, keep_leq):
        out = []
        nv = len(poly)
        for i in range(nv):
            cur, nxt = poly[i], poly[(i + 1) % nv]
            c_in = (cur[axis] <= bound) if keep_leq else (cur[axis] >= bound)
            n_in = (nxt[axis] <= bound) if keep_leq else (nxt[axis] >= bound)
            if c_in:
                out.append(cur)
            if c_in != n_in:
                dc = nxt[axis] - cur[axis]
                do = nxt[1 - axis] - cur[1 - axis]
                num = cur[1 - axis] * dc + (bound - cur[axis]) * do
                assert num % dc == 0, "hex lattice clip must stay integral"
                o = num // dc
                pt = (bound, o) if axis == 0 else (o, bound)
                out.append(pt)
        # Drop consecutive duplicates produced by on-boundary vertices.
        dedup = [p for i, p in enumerate(out) if p != out[i - 1]]
        return dedup

    vertex_id = {}
    vertices = []
    cells = []
    min_area2 = None
    for r in range(m + 1):
        qc = 3 * r
        centers = (
            [2 * i + 1 for i in range(n)] if r % 2 == 0
            else [2 * i for i in range(n + 1)]
        )
        for pc in centers:
            hexagon = [
                (pc + 1, qc - 1),
                (pc + 1, qc + 1),
                (pc, qc + 2),
                (pc - 1, qc + 1),
                (pc - 1, qc - 1),
                (pc, qc - 2),
            ]
            poly = clip(hexagon, 0, 0, False)
            poly = clip(poly, 0, px_max, True)
            poly = clip(poly, 1, 0, False)
            poly = clip(poly, 1, py_max, True)
            if len(poly) < 3:
                continue
            # Twice the signed area in lattice units.
            area2 = sum(
                poly[i][0] * poly[(i + 1) % len(poly)][1]
                - poly[(i + 1) % len(poly)][0] * poly[i][1]
                for i in range(len(poly))
            )
            if area2 == 0:
                continue
            if min_area2 is None:
                # Degeneracy threshold in lattice-area units.
                min_area2 = 1e-12 * (1.0 / n) ** 2 * 2.0 * (2 * n) * (3 * m)
            if area2 < min_area2:
                raise MeshGenerationError(
                    f"degenerate clipped cell at lattice center ({pc}, {qc})"
                )
            idx = []
            for p in poly:
                v = vertex_id.get(p)
                if v is None:
                    v = len(vertices)
                    vertex_id[p] = v
                    vertices.append((p[0] / (2 * n), p[1] / (3 * m)))
                idx.append(v)
            cells.append(idx)
    return _build(vertices, cells)


def load_mesh(stream) -> Mesh:
    """Parse the mesh text format (see ``dump_mesh``) and derive all data."""
    lines = stream.read().splitlines() if hasattr(stream, "read") else list(stream)

    tokens = []  # (line_number, token list)
    for ln, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            tokens.append((ln, body.split()))
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(tokens):
            raise MeshFormatError(f"unexpected end of file: expected {what}")
        ln, tok = tokens[pos]
        pos += 1
        return ln, tok

    ln, tok = take("header 'polymesh 1'")
    if tok != ["polymesh", "1"]:
        raise MeshFormatError(f"line {ln}: expected header 'polymesh 1'")

    ln, tok = take("'vertices N'")
    if len(tok) != 2 or tok[0] != "vertices":
        raise MeshFormatError(f"line {ln}: expected 'vertices N'")
    try:
        nv = int(tok[1])
    except ValueError:
        raise MeshFormatError(f"line {ln}: bad vertex count {tok[1]!r}") from None

    vertices = np.empty((nv, 2))
    for i in range(nv):
        ln, tok = take("vertex coordinates")
        if len(tok) != 2:
            raise MeshFormatError(f"line {ln}: expected 'x y'")
        try:
            vertices[i] = [float(tok[0]), float(tok[1])]
        except ValueError:
            raise MeshFormatError(f"line {ln}: bad coordinate") from None

    ln, tok = take("'cells M'")
    if len(tok) != 2 or tok[0] != "cells":
        raise MeshFormatError(f"line {ln}: expected 'cells M'")
    try:
        nc = int(tok[1])
    except ValueError:
        raise MeshFormatError(f"line {ln}: bad cell count {tok[1]!r}") from None

    cells = []
    for i in range(nc):
        ln, tok = take("cell vertex indices")
        try:
            idx = [int(t) for t in tok]
        except ValueError:
            raise MeshFormatError(f"line {ln}: bad vertex index") from None
        if len(idx) < 3:
            raise MeshFormatError(f"line {ln}: cell {i} needs >= 3 vertices")
        if any(v < 0 or v >= nv for v in idx):
            raise MeshFormatError(f"line {ln}: cell {i} index out of range")
        if len(set(idx)) != len(idx):
            raise MeshFormatError(f"line {ln}: cell {i} repeats a vertex index")
        cells.append(idx)
    if pos < len(tokens):
        ln, _ = tokens[pos]
        raise MeshFormatError(f"line {ln}: trailing content after cells")

    return _build(vertices, cells, check_simple=True)


def dump_mesh(mesh: Mesh, stream):
    """Write the line-oriented mesh text format.

    Header 'polymesh 1'; 'vertices N' then N 'x y' lines; 'cells M' then M
    lines of 0-based CCW vertex indices.  Derived data is never stored.
    """
    stream.write("polymesh 1\n")
    stream.write(f"vertices {mesh.n_vertices}\n")
    for x, y in mesh.vertices:
        stream.write(f"{float(x)!r} {float(y)!r}\n")
    stream.write(f"cells {mesh.n_cells}\n")
    for c in mesh.cells:
        stream.write(" ".join(str(int(v)) for v in c) + "\n")


def validate(mesh: Mesh, unit_square: bool = True) -> list:
    """Check every mesh invariant; returns a list of violation strings."""
    report = []
    for e, ec in enumerate(mesh.edge_cells):
        if len(ec) not in (1, 2):
            report.append(f"edge {e}: incident to {len(ec)} cells")
        if (len(ec) == 1) != bool(mesh.edge_boundary[e]):
            report.append(f"edge {e}: boundary flag inconsistent with incidence")

    sigma_sum = {}
    for i, this in enumerate(mesh.cell_edges):
        cell = mesh.cells[i]
        for t, (e, sigma) in enumerate(this):
            if sigma not in (1, -1):
                report.append(f"cell {i}, edge {e}: |sigma| != 1")
                continue
            a = mesh.vertices[cell[t]]
            b = mesh.vertices[cell[(t + 1) % len(cell)]]
            d = b - a
            n_out = np.array([d[1], -d[0]]) / np.hypot(d[0], d[1])
            if np.linalg.norm(sigma * mesh.edge_normal[e] - n_out) > 1e-9:
                report.append(
                    f"cell {i}, edge {e}: sigma*n_e does not match outward normal"
                )
            if not mesh.edge_boundary[e]:
                sigma_sum[e] = sigma_sum.get(e, 0) + sigma
    for e, s in sigma_sum.items():
        if s != 0:
            report.append(f"edge {e}: interior sigma values sum to {s}")

    for i in range(mesh.n_cells):
        poly = mesh.cell_polygon(i)
        if polygon_area(poly) <= 0.0:
            report.append(f"cell {i}: non-positive area")
        if not _is_simple(poly):
            report.append(f"cell {i}: non-simple polygon")
        elif not _is_convex(poly):
            report.append(f"cell {i}: non-convex polygon")

    if unit_square:
        total = float(mesh.cell_area.sum())
        if abs(total - 1.0) > AREA_TOL:
            report.append(f"cell areas sum to {total!r}, expected 1")
    return report
