"""Global DOF numbering, SPD assembly, and the sparse solve.

Numbering: the free DOFs are numbered in a nested-dissection order of the
cells (George 1973; Lipton, Rose and Tarjan 1979; ``_dissection_ranks``),
so ``assemble`` builds A in a fill-reducing order and ``solve`` factors it
as given.  v0 couples only to its own cell's edges, so the edges cut
between two groups of cells separate them exactly; each cut edge comes
after both groups, and each cell's v0 before its edges.  Constrained
DOFs are left out: the v_b/v_n DOFs of boundary edges.  These are zero for
the clamped problem, or the edge projections of supplied boundary data
(given relative to the fixed edge normal n_e), and their stiffness columns
are moved to the right-hand side.  The load is read from the operators
(``op.moments``).  Free positions are int32, the index type of the
sparse matrices, so the assembly triplets need no conversion.

Solve: A factored as assembled, diagonal pivots, refinement to ``tol``.
Diagonal pivots make a diagonal scaling of A inert, so none is applied.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import dim_pk
from .weakop import WeakFunction, element_operators, local_dofs, project_edge_data


class SolverError(RuntimeError):
    pass


@dataclass
class DofMap:
    """Where each DOF of ``WeakFunction.flat`` sits among the free DOFs.

    ``pos`` (int32) is the DOF's position in the free vector, in the
    nested-dissection order of ``build_dof_map``, or -1 where it is
    constrained; ``constrained`` holds the values of the constrained DOFs
    and zero at the free ones.
    """

    pos: np.ndarray
    constrained: WeakFunction

    @property
    def n_free(self):
        return int(np.count_nonzero(self.pos >= 0))


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
    cell_rank, edge_rank = _dissection_ranks(mesh)
    edge_rank = np.repeat(edge_rank[:, None], k, axis=1)
    rank = WeakFunction(k=k, v0=np.repeat(cell_rank[:, None], dim_pk(k), axis=1),
                        vb=edge_rank, vn=edge_rank).flat()
    # The sort is stable, so a leaf's v0 comes before its uncut edges.
    index = np.flatnonzero(free)
    pos = np.full(len(free), -1, dtype=np.int32)
    pos[index[np.argsort(rank[index], kind="stable")]] = np.arange(len(index))
    return DofMap(pos=pos, constrained=constrained)


def _dissection_ranks(mesh):
    """Nested-dissection ranks of the cells and the edges.

    The cells are bisected ceil(log2(n_cells / 2)) times, each group at the
    median of its centroids along the longer side of their bounding box,
    into 2**levels leaves of one or two cells.  A cell ranks with its leaf,
    an edge with the lowest common ancestor of its two cells' groups, in
    post-order of the bisection tree: a node ranks by the last leaf below
    it, then by its height, so every node follows the leaves below it.
    """
    n = mesh.n_cells
    cells = np.concatenate([s.cells for s in mesh.stacks])
    centroid = np.concatenate([s.centroid for s in mesh.stacks])[np.argsort(cells)]
    levels = ((n + 1) // 2 - 1).bit_length()
    order, size = np.arange(n), np.array([n])
    for _ in range(levels):
        group = np.repeat(np.arange(len(size)), size)
        starts = np.cumsum(size) - size
        c = centroid[order]
        extent = np.maximum.reduceat(c, starts) - np.minimum.reduceat(c, starts)
        along = np.where((extent[:, 0] >= extent[:, 1])[group], c[:, 0], c[:, 1])
        order = order[np.lexsort((along, group))]
        size = np.array([size // 2, size - size // 2]).T.ravel()
    leaf = np.empty(n, dtype=np.intp)
    leaf[order] = np.repeat(np.arange(len(size)), size)

    a, b = mesh.edge_cells.T
    a, b = leaf[a], leaf[np.where(b < 0, a, b)]
    height = np.frexp((a ^ b).astype(float))[1]       # bit length: 0 when a == b
    return leaf * (levels + 1), (a | ((1 << height) - 1)) * (levels + 1) + height


@dataclass
class LinearSystem:
    """Reduced sparse system over free DOFs; boundary data already in b.

    ``A`` is exactly symmetric, as ``assemble`` builds it, and ``solve``
    relies on that.
    """

    A: sp.csr_matrix
    b: np.ndarray


def assemble(mesh, k, j, f, dofmap: DofMap, ops=None) -> LinearSystem:
    """Stiffness (Lw., Lw.) and load (f, v0) over free DOFs.

    ``ops`` is the list from ``element_operators(mesh, k, j)``, built here
    when not given; given, the load is integrated under each operator's own
    cell rule and ``j`` is not read.  The local stiffness is formed once per
    shape.  Stacks and their cells are processed in a fixed order, so the
    result is bit-reproducible.  The (row, column, value) triplets go,
    with int32 indices, into arrays sized in advance, and one stack's
    gathered element blocks are alive at a time.
    """
    if ops is None:
        ops = element_operators(mesh, k, j)
    n, dk = dofmap.n_free, dim_pk(k)
    constrained = dofmap.constrained.flat()
    locs = [local_dofs(mesh, op.stack, k) for op in ops]
    idxs = [dofmap.pos[loc] for loc in locs]           # (nc, nloc), -1 if constrained
    size = sum(int((np.count_nonzero(idx >= 0, axis=1) ** 2).sum()) for idx in idxs)
    rows, cols = np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int32)
    vals = np.empty(size)
    b, start = np.zeros(n), 0
    for op, loc, idx in zip(ops, locs, idxs):
        free = idx >= 0
        of = op.stack.shapes[1]
        ke = (op.matrix.swapaxes(-1, -2) @ op.matrix)[of]  # (nc, nloc, nloc)
        pair = free[:, :, None] & free[:, None, :]
        stop = start + np.count_nonzero(pair)
        rows[start:stop] = np.broadcast_to(idx[:, :, None], ke.shape)[pair]
        cols[start:stop] = np.broadcast_to(idx[:, None, :], ke.shape)[pair]
        vals[start:stop] = ke[pair]
        start = stop

        # Load (f, phi_i)_T on the v0 block, less the constrained columns,
        # which only cells with a constrained DOF have.
        rhs = np.zeros(idx.shape)
        boundary = ~free.all(axis=1)
        rhs[boundary] = -(ke[boundary] @ constrained[loc[boundary]][..., None])[..., 0]
        rhs[:, :dk] += op.moments(f, dk)
        # A DOF lies in one cell or on the edge of two, so no sum of b
        # depends on the order in which the stacks add to it.
        b += np.bincount(idx[free], weights=rhs[free], minlength=n)
        del ke, pair

    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return LinearSystem(A=A, b=b)


def backward_error(system: LinearSystem, x) -> float:
    """Normwise backward error ||Ax - b|| / (||A|| ||x|| + ||b||).

    ||A|| is the 1-norm, taken as the largest row sum of |A|, which it is
    for the symmetric A of ``assemble``.
    """
    A = system.A
    r = float(np.linalg.norm(A @ x - system.b))
    abs_a = sp.csr_matrix((np.abs(A.data), A.indices, A.indptr), shape=A.shape)
    anorm = float((abs_a @ np.ones(A.shape[1])).max())
    return r / (anorm * float(np.linalg.norm(x)) + float(np.linalg.norm(system.b)))


def solve(system: LinearSystem, tol: float = 1e-12) -> np.ndarray:
    """Solve the reduced SPD system to a normwise backward error of ``tol``.

    A is factored as assembled, with diagonal pivots only, and refined to
    ``tol``.  No scaling is needed: with diagonal pivots, eliminating D A D
    gives A's factors scaled by D, exactly when D holds powers of two.
    SuperLU is handed A's own arrays as CSC arrays, so A must be exactly
    symmetric, as ``assemble`` builds it; any other A is factored as its
    transpose, which only the refinement, measured against A, catches.
    The factorization keeps the given order, the nested dissection of
    ``build_dof_map``, so a hand-built ``LinearSystem`` gets no
    fill-reducing order.  The biharmonic stiffness is too ill conditioned
    to trust one factor-solve, and a residual measured against ||b|| alone
    has a floor of eps ||A|| ||x|| / ||b||, which grows like h^-4.
    ``SolverError`` is raised if the factorization fails or ten refinement
    steps do not meet ``tol`` (a NaN included).
    """
    A = system.A
    if float(np.linalg.norm(system.b)) == 0.0:
        return np.zeros(A.shape[0])

    A.sum_duplicates()                     # splu would sort the shared indices
    if np.any(A.diagonal() <= 0.0):
        raise SolverError("non-positive diagonal entry; matrix not SPD")
    try:
        lu = spla.splu(sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape),
                       permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    x = lu.solve(system.b)
    for step in range(11):                 # the solve, then up to ten refinements
        if step:
            x += lu.solve(system.b - A @ x)
        err = backward_error(system, x)
        if err <= tol:
            return x
    raise SolverError(f"backward error {err:.3e} exceeds tolerance {tol:.3e}")


def weak_function_from_free(dofmap: DofMap, x: np.ndarray) -> WeakFunction:
    """Expand a free-DOF vector into a WeakFunction, filling constrained DOFs."""
    full = dofmap.constrained.flat()
    free = dofmap.pos >= 0
    full[free] = x[dofmap.pos[free]]
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
