"""Element-local discrete weak Laplacian, the edge projection of boundary
data, and the stack tables that every cell and edge integral is formed from.

A weak function is the triple {v0, v_b, v_n n_e}: a P_k polynomial per
cell, and P_{k-1} polynomials per edge for the trace and for the normal
flux, the latter stored relative to the edge's fixed normal n_e.

The weak Laplacian lifts a local weak function into P_j(T) (j >= k+2) through
integration by parts against test polynomials psi:

    (Lw v, psi)_T = (lap v0, psi)_T + <Qb(v0 - v_b), grad psi . n>_bT
                    - <(grad v0 - v_n n_e) . n, psi>_bT

with n the outward normal of T.  Since v_b is already in P_{k-1}(e),
Qb(v0 - v_b) = Qb(v0) - v_b, and (v_n n_e) . n = sigma v_n with
sigma = n_e . n, which is how the edge columns below get their signs.

``cell_tables`` and ``edge_tables`` alone build rules and the tables at
their points, on the shapes of a CellStack (``CellStack.shapes``); per
cell, ``on_cells`` evaluates a field, a slice of cells at a time.
Every per-cell loop, here and in ``system`` and ``errors``, walks a stack's
cells a bounded chunk at a time with ``_cell_chunks``, which also gives the
rows of the per-shape arrays (``CellStack.shape_rows``).
A StackOperator keeps its cell rule and table: ``StackOperator.moments``
gives the load of ``system`` under them, ``StackOperator.project`` the
projection Pi_j lap u of ``errors`` in the operator's basis, and
``StackOperator.apply`` Lw v on a slice of the stack's cells, from the
local DOF vectors of ``WeakFunction.local``, the one statement of the
local layout.
"""

from dataclasses import dataclass

import numpy as np

from .basis import (
    SingularCellError,
    dim_pk,
    edge_values,
    from_legendre,
    legendre_laplacian,
    legendre_table,
    legendre_values,
    orthonormal_factor,
)
from .mesh import CellStack, _outward
from .quadrature import QuadratureRule, at_points, quad_cell, quad_edge


def cell_tables(stack: CellStack, degree: int, rule_degree: int):
    """The cell rule of a stack, exact to ``rule_degree``, and the Legendre
    products of ``degree`` at its points, (nc, q, dim P_degree)."""
    rule = quad_cell(stack.polygons, rule_degree)
    return rule, legendre_values(rule.points, stack.centroid, stack.diameter, degree)


def edge_tables(stack: CellStack, k: int, degree: int, rule_degree: int):
    """Tables on the edges of a stack's cells, regrouped per local edge.

    Returns the edge rule exact to ``rule_degree`` (points (nc, nv, q, 2)),
    the orthonormal P_{k-1}(e) basis chi (nc, nv, q, k), and the cell's
    Legendre products of ``degree`` and their outward normal derivatives,
    each (nc, nv, q, dim P_degree).  The rule and chi run lo -> hi, as v_b does.
    """
    p0, p1, normal = stack.edge_geometry()
    erule = quad_edge(p0, p1, rule_degree)
    chi = edge_values(k - 1, p0, p1, erule.params)
    shape = erule.points.shape[:-1] + (-1,)
    vals, gx, gy = (t.reshape(shape) for t in legendre_table(
        erule.points.reshape(len(stack.cells), -1, 2), stack.centroid, stack.diameter, degree))
    gx *= normal[..., 0, None, None]
    gy *= normal[..., 1, None, None]
    gx += gy
    return erule, chi, vals, gx


def on_cells(f, stack: CellStack, rule, cells):
    """``f`` at the points of a rule on the stack's shapes, moved onto each
    of the given ``cells`` (a slice of the stack's rows) by the offset of
    its first vertex from its shape's, (nc, q)."""
    ref, rows = stack.shapes[0], stack.shape_rows(cells)
    return at_points(f, stack.polygons[cells, :1] - ref.polygons[rows, :1] + rule.points[rows])


CHUNK = 1 << 18  # the most entries in one gathered chunk of per-cell or per-row data


def _chunks(n, size):
    """Slices of range(n), each of CHUNK // size rows (one row at least)."""
    step = max(1, CHUNK // size)
    return [slice(a, a + step) for a in range(0, n, step)]


def _cell_chunks(stack, size, cells=slice(None)):
    """The walk over ``cells`` (a slice of the stack's rows, of step 1) in
    the chunks of ``_chunks``: per chunk, its slice of those cells, its slice
    of the stack's rows, and their rows of the per-shape arrays."""
    start, stop, step = cells.indices(len(stack.cells))
    if step != 1:
        raise ValueError(f"cells must be a slice of step 1, got {cells}")
    for s in _chunks(max(0, stop - start), size):
        c = slice(start + s.start, min(start + s.stop, stop))
        yield s, c, stack.shape_rows(c)


@dataclass
class WeakFunction:
    """Coefficient arrays of a weak function over a whole mesh."""

    k: int
    v0: np.ndarray  # (n_cells, dim P_k)
    vb: np.ndarray  # (n_edges, k) in the edge's orthonormal basis
    vn: np.ndarray  # (n_edges, k), flux relative to n_e

    def flat(self) -> np.ndarray:
        """All coefficients as one vector [v0 | v_b | v_n]: the layout of
        ``DofMap.pos`` and of ``from_flat``."""
        return np.concatenate([self.v0.ravel(), self.vb.ravel(), self.vn.ravel()])

    @staticmethod
    def flat_of(k: int, cell, edge) -> np.ndarray:
        """The ``flat`` vector that repeats ``cell[c]`` over cell c's v0 block
        and ``edge[e]`` over edge e's v_b and v_n blocks."""
        edge = np.repeat(edge[:, None], k, axis=1)
        return WeakFunction(k, np.repeat(cell[:, None], dim_pk(k), axis=1), edge, edge).flat()

    def local(self, stack: CellStack, cells=slice(None)) -> np.ndarray:
        """The local DOF vectors of the given ``cells`` (a slice of the
        stack's rows, all by default), (nc, nloc): per cell its v0 block,
        then per local edge the (v_b, v_n) blocks, the column order of
        ``StackOperator.matrix``.  This is the one statement of the local
        layout: on ``from_flat(k, n_cells, dofmap.pos)`` it gathers the cells'
        int32 free positions as well."""
        edges = stack.edges[cells]
        vbn = np.concatenate([self.vb[edges], self.vn[edges]], axis=-1)
        vbn = vbn.reshape(len(edges), edges.shape[1] * 2 * self.k)
        return np.concatenate([self.v0[stack.cells[cells]], vbn], axis=1)

    @classmethod
    def from_flat(cls, k: int, n_cells: int, x: np.ndarray) -> "WeakFunction":
        """The weak function whose ``flat`` vector is ``x``, as views of it."""
        n0 = n_cells * dim_pk(k)
        vb, vn = np.split(x[n0:], 2)
        return cls(k=k, v0=x[:n0].reshape(n_cells, -1), vb=vb.reshape(-1, k),
                   vn=vn.reshape(-1, k))


@dataclass
class StackOperator:
    """Matrix form of the weak Laplacian on one CellStack, per shape: the
    cells of a slice c have rows ``stack.shape_rows(c)``.

    ``matrix`` (S, dim P_j, nloc) maps a cell's local DOF vector (in the
    order of ``WeakFunction.local``) to P_j(T) coefficients in psi = V R^-1,
    the basis orthonormal under the cell rule ``rule``: ``table`` (S, q,
    dim P_j) is sqrt(w) V at its points, V the Legendre products of degree
    ``j``, and ``r`` (S, dim P_j, dim P_j) its QR factor from
    ``orthonormal_factor``.  ``apply`` applies it; the local stiffness
    block is matrix^T matrix.
    """

    stack: CellStack
    matrix: np.ndarray
    j: int
    r: np.ndarray
    rule: QuadratureRule
    table: np.ndarray

    def moments(self, f, m: int, cells=slice(None)) -> np.ndarray:
        """(f, V_i)_T for the leading ``m`` Legendre products of the given
        ``cells`` (a slice of the stack's rows, all by default), (nc, m),
        under the operator's cell rule, a chunk of cells at a time."""
        mats, sqrt_w = self.table[..., :m].swapaxes(-1, -2), np.sqrt(self.rule.weights)
        out = np.empty((len(self.stack.cells[cells]), m))
        for s, c, rows in _cell_chunks(self.stack, self.table[0].size, cells):
            g = on_cells(f, self.stack, self.rule, c) * sqrt_w[rows]
            out[s] = (mats[rows] @ g[..., None])[..., 0]
        return out

    def apply(self, v: WeakFunction, cells=slice(None)) -> np.ndarray:
        """Lw v in the basis psi on the given ``cells`` (a slice of the
        stack's rows, all by default), (nc, dim P_j), from the local DOF
        vectors of ``v`` (``WeakFunction.local``), a chunk of cells at a time."""
        nloc = self.matrix.shape[-1]
        width = v.local(self.stack, slice(0)).shape[1]
        if width != nloc:
            raise ValueError(f"expected {nloc} local DOFs per cell, got {width}")
        out = np.empty((len(self.stack.cells[cells]), self.matrix.shape[1]))
        for s, c, rows in _cell_chunks(self.stack, self.matrix[0].size, cells):
            out[s] = (self.matrix[rows] @ v.local(self.stack, c)[..., None])[..., 0]
        return out

    def project(self, f, cells=slice(None)) -> np.ndarray:
        """Pi_j f, the L2 projection of ``f`` onto P_j(T), in the basis psi
        on the given ``cells`` (a slice of the stack's rows, all by default),
        (nc, dim P_j).  psi is orthonormal, so these are the moments of f
        against psi: R^-T of those against V (``moments``), a chunk of cells
        at a time."""
        out = self.moments(f, dim_pk(self.j), cells)
        for s, _, rows in _cell_chunks(self.stack, self.r[0].size, cells):
            out[s] = from_legendre(self.r[rows], out[s, :, None])[..., 0]
        return out


def element_operators(mesh, k: int, j: int) -> list:
    """The weak-Laplacian operators of the mesh, one StackOperator per
    vertex count (``mesh.stacks``).

    Assembly and the |||.||| functionals take this list, so a solve and its
    error evaluation build each operator once.
    """
    return [_stack_operator(stack, k, j) for stack in mesh.stacks]


def _stack_operator(stack, k, j):
    """Operator of the shapes of one CellStack.

    Every array below carries the shape as its leading axis; edge arrays
    carry the shape's local edge as the second.
    """
    if j < k + 2:
        raise ValueError(f"lifting degree j={j} must be at least k+2={k + 2}")
    shapes = stack.shapes[0]
    # The cell rule is exact to degree 2j+2: for the products V_i V_l that
    # make psi orthonormal, and for the moments (f, V_i) of an f of degree j+2.
    rule, vals = cell_tables(shapes, j, 2 * j + 2)
    vals *= np.sqrt(rule.weights)[..., None]
    r, ok = orthonormal_factor(vals)
    if not ok.all():
        raise SingularCellError(
            f"P_{j} basis of cell {shapes.cells[~ok].min()} is rank deficient under its quadrature rule"
        )
    dk = dim_pk(k)
    # The products of degree k, which span v0, are the leading dk of degree j.
    # The edge rule is exact to degree k+j, above that of every edge integral
    # below: a P_{k-1}(e) function (chi or grad phi.n) times psi, k+j-1.
    erule, chi, vj_e, gpsi_n = edge_tables(shapes, k, j, k + j)

    # Moments against the Legendre products of degree j, mapped to the
    # orthonormal basis psi by R^-T at the end.
    wchi = (erule.weights[..., None] * chi).swapaxes(-1, -2)
    b_e = wchi @ gpsi_n                                  # <chi, grad psi.n>
    c_e = wchi @ vj_e                                    # <chi, psi>
    # <grad phi.n, psi>
    g_e = (erule.weights[..., None] * gpsi_n[..., :dk]).swapaxes(-1, -2) @ vj_e

    # v0 columns: + <Qb(phi), grad psi.n> - <grad phi.n, psi>, where the Qb
    # coefficients of phi, <chi, phi>, lead those of psi
    r_v0 = (b_e.swapaxes(-1, -2) @ c_e[..., :dk] - g_e.swapaxes(-1, -2)).sum(axis=1)
    # per edge, v_b columns: - <chi, grad psi.n>; v_n columns: + sigma <chi, psi>
    edge_cols = np.concatenate([-b_e, shapes.sigma[..., None, None] * c_e], axis=-2)
    rhs = np.concatenate(
        [r_v0, edge_cols.transpose(0, 3, 1, 2).reshape(r_v0.shape[:2] + (-1,))], axis=-1
    )
    matrix = from_legendre(r, rhs)
    # v0 columns: + (lap phi, psi)_T.  lap phi_i has Legendre coefficients
    # legendre_laplacian(k)[:, i] / h^2, and a P_j polynomial with Legendre
    # coefficients c has coefficients R c in psi, as psi = V R^-1.
    matrix[..., :dk] += (r[..., :dk] @ legendre_laplacian(k)
                         / (0.25 * shapes.diameter**2)[:, None, None])
    return StackOperator(stack, matrix, j, r, rule, vals)


def project_edge_data(mesh, edges, k: int, u=None, grad=None):
    """(v_b, v_n) on the given edges, (len(edges), k) each: the edge
    projections of the trace of ``u`` and of ``grad . n_e``, or zeros where
    the field is None.  The edge basis is orthonormal, so each is an inner
    product, under a rule exact for the product of two P_k functions.  n_e
    is the lo -> hi tangent turned by +90 degrees, the outward normal of the
    hi -> lo edge vector.
    """
    p0, p1 = mesh.vertices[mesh.edges[edges, 0]], mesh.vertices[mesh.edges[edges, 1]]
    rule = quad_edge(p0, p1, 2 * k)
    chi_t = edge_values(k - 1, p0, p1, rule.params).swapaxes(-1, -2)

    def project(g):
        return (chi_t @ (rule.weights * g)[..., None])[..., 0]

    vb = np.zeros((len(edges), k)) if u is None else project(at_points(u, rule.points))
    vn = np.zeros((len(edges), k)) if grad is None else project(
        np.sum(at_points(grad, rule.points) * _outward(p0 - p1)[:, None, :], axis=-1))
    return vb, vn
