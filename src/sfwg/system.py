"""Global DOF numbering, SPD assembly, and the sparse solve.

Numbering: the DOFs of ``WeakFunction.flat`` in order, v0 of every cell,
then v_b and v_n of every edge, with the constrained ones left out: the
v_b/v_n DOFs of boundary edges.  These are zero for the clamped problem, or
the edge projections of supplied boundary data (given relative to the
fixed edge normal n_e), and their stiffness columns are moved to the
right-hand side.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import CellBasis, dim_pk
from .quadrature import at_points, quad_cell
from .weakop import (
    WeakFunction,
    cell_rule_degree,
    element_operators,
    local_dofs,
    project_edge_data,
)


class SolverError(RuntimeError):
    pass


@dataclass
class DofMap:
    """Where each DOF of ``WeakFunction.flat`` sits among the free DOFs.

    ``pos`` is the DOF's position in the free vector, or -1 where it is
    constrained; ``constrained`` holds the values of the constrained DOFs
    and zero at the free ones.
    """

    pos: np.ndarray
    constrained: WeakFunction

    @property
    def n_free(self):
        return int(np.count_nonzero(self.pos >= 0))

    @property
    def n_total(self):
        return len(self.pos)


def build_dof_map(mesh, k, g_d=None, g_n=None) -> DofMap:
    """Number free DOFs and project boundary data onto constrained ones.

    ``g_d`` is the trace of the solution, ``g_n`` its derivative along the
    fixed edge normal n_e; both default to zero (clamped plate).
    """
    constrained = WeakFunction(
        k=k, v0=np.zeros((mesh.n_cells, dim_pk(k))),
        vb=np.zeros((mesh.n_edges, k)), vn=np.zeros((mesh.n_edges, k)),
    )
    boundary = np.flatnonzero(mesh.edge_boundary)
    constrained.vb[boundary], constrained.vn[boundary] = project_edge_data(
        mesh, boundary, k, g_d, g_n)
    interior = np.repeat(~mesh.edge_boundary[:, None], k, axis=1)
    free = WeakFunction(k=k, v0=np.ones_like(constrained.v0, dtype=bool),
                        vb=interior, vn=interior).flat()
    pos = np.where(free, np.cumsum(free) - 1, -1)
    return DofMap(pos=pos, constrained=constrained)


@dataclass
class LinearSystem:
    """Reduced sparse system over free DOFs; boundary data already in b."""

    A: sp.csr_matrix
    b: np.ndarray


def assemble(mesh, k, j, f, dofmap: DofMap, ops=None) -> LinearSystem:
    """Stiffness (Lw., Lw.) and load (f, v0) over free DOFs.

    ``ops`` is the list from ``element_operators(mesh, k, j)``, built here
    when not given.  Stacks and their cells are processed in a fixed order,
    so the result is bit-reproducible.
    """
    if ops is None:
        ops = element_operators(mesh, k, j)
    n = dofmap.n_free
    constrained = dofmap.constrained.flat()
    rows, cols, vals = [], [], []
    b = np.zeros(n)
    for op in ops:
        stack = op.stack
        loc = local_dofs(mesh, stack, k)
        idx = dofmap.pos[loc]                          # (nc, nloc), -1 if constrained
        free = idx >= 0
        ke = op.matrix.swapaxes(-1, -2) @ op.matrix    # (nc, nloc, nloc)
        pair = free[:, :, None] & free[:, None, :]
        rows.append(np.broadcast_to(idx[:, :, None], ke.shape)[pair])
        cols.append(np.broadcast_to(idx[:, None, :], ke.shape)[pair])
        vals.append(ke[pair])

        # Load (f, phi_i)_T on the v0 block, less the constrained columns.
        rule = quad_cell(stack.polygons, cell_rule_degree(j))
        basis_k = CellBasis(k, mesh.cell_centroid[stack.cells],
                            mesh.cell_diameter[stack.cells])
        rhs = -(ke @ constrained[loc][..., None])[..., 0]
        rhs[:, :basis_k.dim] += np.einsum("cqi,cq->ci", basis_k.values(rule.points),
                                          rule.weights * at_points(f, rule.points))
        np.add.at(b, idx[free], rhs[free])

    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    return LinearSystem(A=A, b=b)


def backward_error(system: LinearSystem, x) -> float:
    """Normwise backward error ||Ax - b|| / (||A|| ||x|| + ||b||)."""
    r = float(np.linalg.norm(system.A @ x - system.b))
    anorm = float(abs(system.A).sum(axis=0).max())
    return r / (anorm * float(np.linalg.norm(x)) + float(np.linalg.norm(system.b)))


def solve(system: LinearSystem, tol: float = 1e-12) -> np.ndarray:
    """Solve the reduced SPD system to a normwise backward error of ``tol``.

    The system is symmetrically equilibrated to unit diagonal and factored
    in a minimum-degree order on A + Aᵀ with diagonal pivots only, which a
    symmetric positive definite matrix allows.  Iterative refinement then
    runs until ``backward_error`` meets ``tol``; the biharmonic stiffness is
    too ill conditioned to trust a single factor-solve, and a residual
    measured against ||b|| alone has a floor of eps * ||A|| ||x|| / ||b||,
    which grows like h^-4.  ``SolverError`` is raised if the factorization
    fails or ten refinement steps do not meet ``tol`` (a NaN included).
    """
    n = system.A.shape[0]
    if float(np.linalg.norm(system.b)) == 0.0:
        return np.zeros(n)

    d = system.A.diagonal()
    if np.any(d <= 0.0):
        raise SolverError("non-positive diagonal entry; matrix not SPD")
    s = np.sqrt(d)
    a_s = (sp.diags(1.0 / s) @ system.A @ sp.diags(1.0 / s)).tocsc()
    b_s = system.b / s

    try:
        lu = spla.splu(a_s, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    y = np.zeros(n)
    for _ in range(11):                    # the solve, then up to ten refinements
        y = y + lu.solve(b_s - a_s @ y)
        x = y / s
        err = backward_error(system, x)
        if err <= tol:
            return x
    raise SolverError(f"backward error {err:.3e} exceeds tolerance {tol:.3e}")


def weak_function_from_free(dofmap: DofMap, x: np.ndarray) -> WeakFunction:
    """Expand a free-DOF vector into a WeakFunction, filling constrained DOFs."""
    full = dofmap.constrained.flat()
    free = dofmap.pos >= 0
    full[free] = x
    return WeakFunction.from_flat(dofmap.constrained.k, len(dofmap.constrained.v0), full)


def solve_biharmonic(mesh, k, j, f, boundary=None, tol=1e-12, ops=None) -> WeakFunction:
    """End-to-end solve: DOF map, assembly, sparse solve, expansion.

    ``boundary`` is an optional (g_d, g_n) pair; g_n is the solution's
    derivative along the fixed edge normals n_e.  ``ops`` are the element
    operators, as for ``assemble``.
    """
    g_d, g_n = boundary if boundary is not None else (None, None)
    dofmap = build_dof_map(mesh, k, g_d=g_d, g_n=g_n)
    system = assemble(mesh, k, j, f, dofmap, ops=ops)
    x = solve(system, tol=tol)
    return weak_function_from_free(dofmap, x)
