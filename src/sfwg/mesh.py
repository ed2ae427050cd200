"""2D polygonal meshes of the unit square with edge-orientation data.

A Mesh carries, besides vertices and cells, per cell the sign sigma =
n_e . n_outward for each of its edges, where n_e is the edge's fixed unit
normal (the lower-to-higher vertex-index tangent rotated by +90 degrees),
derived where it is read (``_outward``).  The weak operators consume this
data, from the mesh's stacks of cells with equal vertex counts.  Cells of
a stack that are translates, with equal sigma, share a shape, and element
data is built once per shape.
"""

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .quadrature import polygon_area, polygon_centroid

AREA_TOL = 1e-12


class MeshError(Exception):
    pass


class MeshFormatError(MeshError):
    pass


class MeshTopologyError(MeshError):
    pass


@dataclass
class CellStack:
    """The cells of a mesh that have one vertex count, as stacked arrays;
    local edge t of a cell runs from its vertex t to vertex t+1."""

    cells: np.ndarray     # (nc,) cell indices, increasing
    polygons: np.ndarray  # (nc, nv, 2) CCW vertex coordinates
    edges: np.ndarray     # (nc, nv) global index of each local edge
    sigma: np.ndarray     # (nc, nv) n_e . n_outward, as float
    centroid: np.ndarray  # (nc, 2)
    diameter: np.ndarray  # (nc,)
    shape: np.ndarray     # (nc,) shape label: equal for translates with equal sigma

    def edge_geometry(self):
        """The lo and hi endpoints and the outward unit normal of every local
        edge, (nc, nv, 2) each: edge t runs lo -> hi exactly where sigma < 0."""
        tail, head = self.polygons, np.roll(self.polygons, -1, axis=1)
        lo_hi = (self.sigma < 0)[..., None]
        return np.where(lo_hi, tail, head), np.where(lo_hi, head, tail), _outward(head - tail)

    def rows(self, rows):
        """The stack of the given rows of this one."""
        return CellStack(*(getattr(self, f.name)[rows] for f in fields(CellStack)))

    @functools.cached_property
    def shapes(self):
        """(ref, of): a stack of the first cell of each shape, in order, and
        the row ``of[c]`` of cell c's shape in it, which is the identity (and
        ``ref`` shares the stack's arrays) when every cell has its own shape."""
        _, first, of = np.unique(self.shape, return_index=True, return_inverse=True)
        order = np.argsort(first)
        ref = replace(self) if len(first) == len(of) else self.rows(first[order])
        return ref, np.argsort(order)[of]

    def shape_rows(self, cells):
        """The rows of per-shape arrays for the slice ``cells``: the slice
        itself when every cell is its own shape, else ``shapes[1][cells]``."""
        ref, of = self.shapes
        return cells if len(ref.cells) == len(of) else of[cells]


@dataclass
class Mesh:
    """Immutable-by-convention polygonal mesh; build via the module functions;
    per-cell data lives in the rows of ``stacks``."""

    vertices: np.ndarray     # (nv, 2)
    cells: list              # list of CCW vertex-index arrays
    edges: np.ndarray        # (ne, 2), lo < hi
    edge_cells: np.ndarray   # (ne, 2) incident cells in increasing order, -1 if none
    stacks: list             # CellStacks, in increasing vertex count
    h: float

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def edge_boundary(self):  # (ne,) bool: on one cell only
        return self.edge_cells[:, 1] < 0


def cell_stacks(mesh: Mesh) -> list:
    """The mesh's cells grouped by vertex count: the stacks stored at build,
    in increasing vertex count, cells within one in increasing index.  The
    package reads ``mesh.stacks``; this is the call that ``perfbench``
    times as its ``mesh.stacks`` layer."""
    return mesh.stacks


def _cross(u, w):
    return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]


def _outward(d):
    """Unit normals to the right of edge vectors d (..., 2): the outward
    normals of a CCW cell's edges, and n_e for d = p_lo - p_hi."""
    return np.stack([d[..., 1], -d[..., 0]], axis=-1) / np.hypot(d[..., 0], d[..., 1])[..., None]


def _shape_labels(polygons, sigma, diameter):
    """Equal labels for cells of a stack with equal sigma and vertex offsets
    from the first vertex that round alike to 2^-30 of the largest diameter.
    Cells closer than that share an operator; translates differ only by
    roundoff, near 1e-16 of it, so rounding this coarse seldom splits them."""
    offsets = np.rint((polygons[:, 1:] - polygons[:, :1]) / (2.0**-30 * diameter.max()))
    key = np.concatenate([offsets.reshape(len(sigma), -1), sigma], axis=1).astype(np.int64)
    return np.unique(key.view(f"V{key.itemsize * key.shape[1]}")[:, 0], return_inverse=True)[1]


def _convex(polygons):
    """Whether each polygon of a stack (nc, nv, 2) turns left or goes
    straight at every vertex."""
    d = np.roll(polygons, -1, axis=1) - polygons  # local edge t
    return ~(_cross(d, np.roll(d, -1, axis=1)) < 0.0).any(axis=1)


def _simple(polygons):
    """Whether each polygon of a stack (nc, nv, 2) winds once: its exterior
    angles sum to 2 pi.  A polygon that turns left or goes straight at
    every vertex is simple exactly when it winds once."""
    d = np.roll(polygons, -1, axis=1) - polygons
    dn = np.roll(d, -1, axis=1)
    turn = np.arctan2(_cross(d, dn), np.sum(d * dn, axis=-1)).sum(axis=1)
    return abs(turn - 2.0 * np.pi) < np.pi


# Why _build rejects a cell, in the order it checks them.  quad_cell fans a
# cell from its first vertex, which is exact only on convex cells.
_CELL_FAULTS = ("is not counter-clockwise (signed area {area:g})",
                "is not a simple polygon", "is not convex")


def _build(vertices, cells, h=None):
    """Derive all edge/cell data from vertices and CCW cell cycles.

    Cells have at least 3 distinct vertex indices, each in range
    (``load_mesh`` checks this).  They are checked and measured one stack
    of equal vertex count at a time; ``h`` is the largest cell diameter
    unless given.  Half-edge arrays run over (cell, local edge) in order;
    edges are numbered in order of first appearance there.
    """
    vertices = np.asarray(vertices, dtype=float)
    count = np.fromiter(map(len, cells), np.intp, len(cells))
    flat = np.concatenate(cells).astype(np.intp, copy=False)
    first = np.cumsum(count) - count  # first half-edge of each cell
    n_cells = len(count)

    fault = np.zeros((len(_CELL_FAULTS), n_cells), dtype=bool)
    area = np.empty(n_cells)
    groups = []  # (cells, half-edge index (nc, nv), polygons)
    for nv in np.unique(count):
        sel = np.flatnonzero(count == nv)
        half = first[sel, None] + np.arange(nv)
        poly = vertices[flat[half]]
        area[sel] = polygon_area(poly)
        fault[0, sel] = area[sel] <= 0.0
        fault[1, sel] = ~_simple(poly)
        fault[2, sel] = ~_convex(poly)
        groups.append((sel, half, poly))
    if fault.any():
        i = int(np.argmax(fault.any(axis=0)))
        why = _CELL_FAULTS[int(np.argmax(fault[:, i]))]
        raise MeshTopologyError(f"cell {i} " + why.format(area=area[i]))

    # Half-edge h runs from flat[h] to flat[succ[h]].
    succ = np.arange(1, len(flat) + 1)
    succ[first + count - 1] = first
    cell_of = np.repeat(np.arange(n_cells), count)
    lo, hi = np.minimum(flat, flat[succ]), np.maximum(flat, flat[succ])
    _, lead, inverse, incidence = np.unique(
        lo * len(vertices) + hi, return_index=True, return_inverse=True, return_counts=True)
    if incidence.max() > 2:
        # Name the edge whose third incidence comes first, as a walk over
        # the cells in order would.
        order = np.argsort(inverse, kind="stable")
        nth = np.empty_like(order)
        nth[order] = np.arange(len(order)) - np.repeat(np.cumsum(incidence) - incidence, incidence)
        third = int(np.argmax(nth >= 2))
        raise MeshTopologyError(
            f"edge {(int(lo[third]), int(hi[third]))} incident to more than 2 cells")
    number = np.empty_like(lead)
    number[np.argsort(lead)] = np.arange(len(lead))
    half_edge = number[inverse]
    lead = np.sort(lead)  # first half-edge of each edge
    edges = np.stack([lo[lead], hi[lead]], axis=1)
    edge_cells = np.full((len(lead), 2), -1, dtype=np.intp)
    edge_cells[:, 0] = cell_of[lead]
    later = np.ones(len(flat), dtype=bool)
    later[lead] = False
    edge_cells[half_edge[later], 1] = cell_of[later]

    t = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    length = np.hypot(t[:, 0], t[:, 1])
    if (length == 0.0).any():
        raise MeshTopologyError(f"edge {int(np.argmax(length == 0.0))} has zero length")

    # sigma = n_e . n_outward per half-edge: n_e is the left normal of
    # lo -> hi and n_outward the right normal of the half-edge, as the cell
    # is CCW, so sigma is -1 exactly where the half-edge runs lo -> hi.
    sigma = np.where(flat < flat[succ], -1.0, 1.0)
    # Two CCW cells run an edge they share in opposite directions; cells
    # that run it the same way overlap, folded over the edge.
    folded = (np.bincount(half_edge, sigma) != 0.0) & (edge_cells[:, 1] >= 0)
    if folded.any():
        e = int(np.argmax(folded))
        raise MeshTopologyError(
            f"cells {edge_cells[e, 0]} and {edge_cells[e, 1]} run their shared edge "
            f"{(int(edges[e, 0]), int(edges[e, 1]))} in the same direction")

    stacks = []
    for sel, half, poly in groups:
        gap = poly[:, :, None, :] - poly[:, None, :, :]
        diameter = np.sqrt((gap * gap).sum(axis=-1).max(axis=(1, 2)))
        stacks.append(CellStack(sel, poly, half_edge[half], sigma[half], polygon_centroid(poly),
                                diameter, _shape_labels(poly, sigma[half], diameter)))
    return Mesh(
        vertices=vertices,
        cells=[flat[a:b] for a, b in zip(first.tolist(), (first + count).tolist())],
        edges=edges,
        edge_cells=edge_cells,
        stacks=stacks,
        h=float(max(s.diameter.max() for s in stacks)) if h is None else float(h),
    )


def build_triangular(n: int) -> Mesh:
    """Uniform n x n triangulation of the unit square.

    Each grid square is split by its lower-left to upper-right diagonal.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.arange(n + 1) / n
    vertices = np.stack([np.tile(x, n + 1), np.repeat(x, n + 1)], axis=1)
    # Lower-left corner of grid square (i, j), row by row.
    a = (np.arange(n) + (n + 1) * np.arange(n)[:, None]).ravel()
    b, c, d = a + 1, a + n + 2, a + n + 1
    cells = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    # Congruent right triangles: h, their diagonal, is stated to halve exactly.
    return _build(vertices, cells, h=math.sqrt(2.0) / n)


def build_polygonal(n: int) -> Mesh:
    """Deterministic hexagon-dominant mesh of the unit square.

    A stretched honeycomb with ``n`` hexagon columns, laid out on an integer
    lattice (x multiples of 1/(2n), y multiples of 1/(3m)) so that clipping
    to the square is exact: interior cells are hexagons, boundary cells
    convex quadrilaterals and pentagons.  Every hexagon center lies in the
    closed lattice box, so no clipped cell is empty or degenerate.
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
        return [p for i, p in enumerate(out) if p != out[i - 1]]

    vertex_id = {}
    vertices = []
    cells = []
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
    """Parse a text stream in the mesh format (see ``dump_mesh``); derive all data."""
    lines = stream.read().splitlines()

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
        nv = -1
    if nv < 0:
        raise MeshFormatError(f"line {ln}: bad vertex count {tok[1]!r}")

    vertices = []
    for _ in range(nv):
        ln, tok = take("vertex coordinates")
        if len(tok) != 2:
            raise MeshFormatError(f"line {ln}: expected 'x y'")
        try:
            x, y = float(tok[0]), float(tok[1])
        except ValueError:
            raise MeshFormatError(f"line {ln}: bad coordinate") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise MeshFormatError(f"line {ln}: non-finite coordinate")
        vertices.append((x, y))

    ln, tok = take("'cells M'")
    if len(tok) != 2 or tok[0] != "cells":
        raise MeshFormatError(f"line {ln}: expected 'cells M'")
    try:
        nc = int(tok[1])
    except ValueError:
        raise MeshFormatError(f"line {ln}: bad cell count {tok[1]!r}") from None
    if nc < 1:
        raise MeshFormatError(f"line {ln}: a mesh needs at least one cell")

    cells = []
    for i in range(nc):
        ln, tok = take("cell vertex indices")
        try:
            idx = [int(t) for t in tok]
        except ValueError:
            raise MeshFormatError(f"line {ln}: bad vertex index") from None
        if len(idx) < 3:
            raise MeshFormatError(f"line {ln}: cell {i} needs >= 3 vertices")
        if min(idx) < 0 or max(idx) >= nv:
            raise MeshFormatError(f"line {ln}: cell {i} index out of range")
        if len(set(idx)) != len(idx):
            raise MeshFormatError(f"line {ln}: cell {i} repeats a vertex index")
        cells.append(idx)
    if pos < len(tokens):
        ln, _ = tokens[pos]
        raise MeshFormatError(f"line {ln}: trailing content after cells")

    return _build(vertices, cells)


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


def validate(mesh: Mesh) -> list:
    """Check that the mesh is what ``_build`` makes of its own vertices and
    cells, and that it covers the unit square.  The report lists non-finite
    vertices and cells with a vertex index out of range, else the rebuild's
    error, else each stored row, named by its cell or edge, that differs
    from the rebuilt one, and an h off the largest rebuilt diameter by more
    than 4 eps max|vertex| (``build_triangular`` states h exactly).
    """
    n = mesh.n_vertices
    if not len(mesh.cells):
        return ["mesh has no cells"]
    report = [f"vertex {v}: non-finite coordinate"
              for v in np.flatnonzero(~np.isfinite(mesh.vertices).all(axis=1))]
    report += [f"cell {c}: vertex index out of range for {n} vertices"
               for c, cell in enumerate(mesh.cells) if not all(0 <= v < n for v in cell)]
    if report:
        return report
    try:
        built = _build(mesh.vertices, mesh.cells)
    except MeshError as exc:
        return [str(exc)]

    def compare(name, stored, rebuilt, lead, where):
        """Report each row, over the first ``lead`` axes, at which the two differ."""
        if np.shape(stored) != rebuilt.shape:
            report.append(f"{name} has shape {np.shape(stored)}, rebuilt {rebuilt.shape}")
            return
        differ = (np.asarray(stored) != rebuilt).reshape(rebuilt.shape[:lead] + (-1,))
        report.extend(f"{where(*i)}: {name} differs from the rebuilt mesh"
                      for i in zip(*np.nonzero(differ.any(axis=-1))))

    for name in ("edges", "edge_cells"):
        compare(name, getattr(mesh, name), getattr(built, name), 1, lambda e: f"edge {e}")
    if not abs(mesh.h - built.h) <= 4 * np.finfo(float).eps * np.abs(mesh.vertices).max():
        report.append(f"h is {mesh.h!r}, largest rebuilt diameter {built.h!r}")
    if len(mesh.stacks) != len(built.stacks):
        report.append(f"{len(mesh.stacks)} stacks, rebuilt {len(built.stacks)}")
    for stored, s in zip(mesh.stacks, built.stacks):
        for name in (f.name for f in fields(CellStack)):
            if name in ("edges", "sigma"):  # a row per local edge
                compare(name, getattr(stored, name), getattr(s, name), 2,
                        lambda c, t: f"cell {s.cells[c]}, edge {s.edges[c, t]}")
            else:
                compare(name, getattr(stored, name), getattr(s, name), 1,
                        lambda c: f"cell {s.cells[c]}")

    total = float(sum(polygon_area(s.polygons).sum() for s in built.stacks))
    if abs(total - 1.0) > AREA_TOL:
        report.append(f"cell areas sum to {total!r}, expected 1")
    return report
