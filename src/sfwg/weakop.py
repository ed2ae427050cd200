"""Element-local discrete weak Laplacian, the weak-function interpolant,
and the stack tables that every cell and edge integral is formed from.

A weak function is the triple {v0, v_b, v_n n_e}: a P_k polynomial per
cell, and P_{k-1} polynomials per edge for the trace and for the normal
flux, the latter stored relative to the edge's fixed normal n_e.

The weak Laplacian lifts a local weak function into P_j(T) (j > k) through
integration by parts against test polynomials psi:

    (Lw v, psi)_T = (lap v0, psi)_T + <Qb(v0 - v_b), grad psi . n>_bT
                    - <(grad v0 - v_n n_e) . n, psi>_bT

with n the outward normal of T.  Since v_b is already in P_{k-1}(e),
Qb(v0 - v_b) = Qb(v0) - v_b, and (v_n n_e) . n = sigma v_n with
sigma = n_e . n, which is how the edge columns below get their signs.

``cell_tables`` and ``edge_tables`` alone build rules and the tables at
their points, on the shapes of a CellStack (``CellStack.shapes``); per
cell, ``on_cells`` evaluates a field and ``per_cell`` applies the tables.
A StackOperator keeps its cell rule and table: ``StackOperator.moments``
gives the load of ``system`` and Pi_j lap u of ``errors`` under them.
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
from .mesh import CellStack, cell_stacks
from .quadrature import QuadratureRule, at_points, quad_cell, quad_edge


def cell_rule_degree(j: int) -> int:
    return 2 * j + 2


def edge_rule_degree(k: int, j: int) -> int:
    return k + j


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


def on_cells(f, stack: CellStack, rule):
    """``f`` at the points of a rule on the stack's shapes, moved onto each
    cell by the offset of its first vertex from its shape's, (nc, q)."""
    ref, of = stack.shapes
    return at_points(f, stack.polygons[:, :1] - ref.polygons[of, :1] + rule.points[of])


def per_cell(mats, of, vecs):
    """``mats[of[c]] @ vecs[c]`` for every cell c, (nc, m), from per-shape
    matrices (S, m, n) and per-cell vectors (nc, n).  Unless ``of`` is the
    identity, the matrices are gathered 2^18 numbers at a time at most."""
    if len(mats) == len(of):
        return (mats @ vecs[..., None])[..., 0]
    out = np.empty((len(of), mats.shape[1]))
    step = max(1, (1 << 18) // mats[0].size)
    for a in range(0, len(of), step):
        out[a:a + step] = (mats[of[a:a + step]] @ vecs[a:a + step, :, None])[..., 0]
    return out


@dataclass
class WeakFunction:
    """Coefficient arrays of a weak function over a whole mesh."""

    k: int
    v0: np.ndarray  # (n_cells, dim P_k)
    vb: np.ndarray  # (n_edges, k) in the edge's orthonormal basis
    vn: np.ndarray  # (n_edges, k), flux relative to n_e

    def flat(self) -> np.ndarray:
        """All coefficients as one vector [v0 | v_b | v_n], which
        ``local_dofs`` indexes."""
        return np.concatenate([self.v0.ravel(), self.vb.ravel(), self.vn.ravel()])

    @classmethod
    def from_flat(cls, k: int, n_cells: int, x: np.ndarray) -> "WeakFunction":
        """The weak function whose ``flat`` vector is ``x``, as views of it."""
        n0 = n_cells * dim_pk(k)
        vb, vn = np.split(x[n0:], 2)
        return cls(k=k, v0=x[:n0].reshape(n_cells, -1), vb=vb.reshape(-1, k),
                   vn=vn.reshape(-1, k))


def local_dofs(mesh, stack: CellStack, k: int) -> np.ndarray:
    """Index of every local DOF of a stack's cells into ``WeakFunction.flat``.

    Returns (nc, nloc): per cell its v0 block, then per local edge the
    (v_b, v_n) blocks, the column order of ``StackOperator.matrix``.
    """
    dk = dim_pk(k)
    nc = len(stack.cells)
    v0 = stack.cells[:, None] * dk + np.arange(dk)
    vb = mesh.n_cells * dk + stack.edges[..., None] * k + np.arange(k)
    vn = vb + mesh.n_edges * k
    return np.concatenate([v0, np.concatenate([vb, vn], axis=-1).reshape(nc, -1)], axis=1)


@dataclass
class StackOperator:
    """Matrix form of the weak Laplacian on one CellStack, per shape: cell
    c has row ``stack.shapes[1][c]``.

    ``matrix`` (S, dim P_j, nloc) maps a cell's local DOF vector (in the
    order of ``local_dofs``) to P_j(T) coefficients in psi = V R^-1, the
    basis orthonormal under the cell rule ``rule``: ``table`` (S, q, dim P_j)
    is sqrt(w) V at its points, V the Legendre products of degree ``j``, and
    ``r`` (S, dim P_j, dim P_j) its QR factor from ``orthonormal_factor``.
    The local stiffness block is matrix^T matrix.
    """

    stack: CellStack
    matrix: np.ndarray
    j: int
    r: np.ndarray
    rule: QuadratureRule
    table: np.ndarray

    def moments(self, f, m: int) -> np.ndarray:
        """(f, V_i)_T for the leading ``m`` Legendre products of every cell,
        (nc, m), under the operator's cell rule."""
        of = self.stack.shapes[1]
        g = on_cells(f, self.stack, self.rule) * np.sqrt(self.rule.weights)[of]
        return per_cell(self.table[..., :m].swapaxes(-1, -2), of, g)


def element_operators(mesh, k: int, j: int) -> list:
    """The weak-Laplacian operators of the mesh, one StackOperator per
    vertex count (the stacks of ``cell_stacks``).

    Assembly and the |||.||| functionals take this list, so a solve and its
    error evaluation build each operator once.
    """
    return [_stack_operator(stack, k, j) for stack in cell_stacks(mesh)]


def _stack_operator(stack, k, j):
    """Operator of the shapes of one CellStack.

    Every array below carries the shape as its leading axis; edge arrays
    carry the shape's local edge as the second.
    """
    if j <= k:
        raise ValueError(f"lifting degree j={j} must exceed k={k}")
    shapes = stack.shapes[0]
    rule, vals = cell_tables(shapes, j, cell_rule_degree(j))
    vals *= np.sqrt(rule.weights)[..., None]
    r, ok = orthonormal_factor(vals)
    if not ok.all():
        raise SingularCellError(
            f"P_{j} basis of cell {shapes.cells[~ok].min()} is rank deficient under its quadrature rule"
        )
    dk = dim_pk(k)
    # The products of degree k, which span v0, are the leading dk of degree j.
    erule, chi, vj_e, gpsi_n = edge_tables(shapes, k, j, edge_rule_degree(k, j))

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


def apply_weak_laplacian(op: StackOperator, dofs) -> np.ndarray:
    """P_j coefficients (nc, dim P_j) of the local DOF vectors ``dofs``
    (nc, nloc) of the operator's cells."""
    dofs = np.asarray(dofs, dtype=float)
    nc, nloc = len(op.stack.cells), op.matrix.shape[-1]
    if dofs.shape != (nc, nloc):
        raise ValueError(f"expected {nc} x {nloc} local DOFs, got {dofs.shape}")
    return per_cell(op.matrix, op.stack.shapes[1], dofs)


def project_edge_data(mesh, edges, k: int, u=None, grad=None):
    """(v_b, v_n) on the given edges, (len(edges), k) each: the edge
    projections of the trace of ``u`` and of ``grad . n_e``, or zeros where
    the field is None.  The edge basis is orthonormal, so each is an inner
    product, under a rule exact for the product of two P_k functions.
    """
    p0, p1 = mesh.vertices[mesh.edges[edges, 0]], mesh.vertices[mesh.edges[edges, 1]]
    rule = quad_edge(p0, p1, 2 * k)
    chi_t = edge_values(k - 1, p0, p1, rule.params).swapaxes(-1, -2)

    def project(g):
        return (chi_t @ (rule.weights * g)[..., None])[..., 0]

    vb = np.zeros((len(edges), k)) if u is None else project(at_points(u, rule.points))
    vn = np.zeros((len(edges), k)) if grad is None else project(
        np.sum(at_points(grad, rule.points) * mesh.edge_normal[edges, None, :], axis=-1))
    return vb, vn


def interpolate_qh(u, grad_u, mesh, k: int) -> WeakFunction:
    """Interpolate a smooth field into the weak space.

    v0 = L2 cell projection of u onto P_k; v_b = edge projection of the
    trace; v_n = edge projection of grad u . n_e.
    """
    v0 = np.empty((mesh.n_cells, dim_pk(k)))
    for stack in cell_stacks(mesh):
        ref, of = stack.shapes
        rule, vals = cell_tables(ref, k, cell_rule_degree(k))
        wvt = (rule.weights[..., None] * vals).swapaxes(-1, -2)
        try:
            l_inv = np.linalg.inv(np.linalg.cholesky(wvt @ vals))  # V L^-T is orthonormal
        except np.linalg.LinAlgError as exc:
            raise SingularCellError(f"singular cell mass matrix: {exc}") from exc
        v0[stack.cells] = per_cell(l_inv.swapaxes(-1, -2), of,
                                   per_cell(l_inv @ wvt, of, on_cells(u, stack, rule)))
    vb, vn = project_edge_data(mesh, np.arange(mesh.n_edges), k, u, grad_u)
    return WeakFunction(k=k, v0=v0, vb=vb, vn=vn)
