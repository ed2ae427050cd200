"""Global DOF numbering, SPD assembly, and the sparse solve.

Numbering: the free DOFs are numbered in a nested-dissection order of the
cells (George 1973; Lipton, Rose and Tarjan 1979; ``_dissection_ranks``),
so ``assemble`` builds A in a fill-reducing order and ``solve`` factors it
as given.  v0 couples only to its own cell's edges, so the edges cut
between two groups of cells separate them exactly; each cut edge comes
after both groups, and each cell's v0 before its edges.  The ranks are
spread over the DOFs of the flat layout by ``WeakFunction.flat_of`` and
numbered by one stable sort; ``assemble`` lays out its row lengths the
same way.  Constrained DOFs are left out: the v_b/v_n DOFs of boundary
edges.  These are zero for the clamped problem, or the edge projections
of supplied boundary data (given relative to the fixed edge normal n_e),
and their stiffness columns are moved to the right-hand side.  The load
is read from the operators (``op.moments``).  Free positions are int32,
the index type of the sparse matrices, so they are A's column indices as
they stand.

Solve: A factored as assembled, diagonal pivots, narrow SuperLU panels,
refinement to ``tol``.
Diagonal pivots make a diagonal scaling of A inert, so none is applied.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import dim_pk
from .weakop import WeakFunction, _cell_chunks, _chunks, project_edge_data


# SuperLU's panel width.  Its dense panel workspace, about m x PANEL_SIZE x
# 16 bytes for m unknowns, is freed only when ``splu`` returns, so it sits on
# top of the finished factors at the solve's peak.  Eight columns factor as
# fast as scipy's default of 20 on the finest studied levels.
PANEL_SIZE = 8


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
    # A stable sort by rank keeps a leaf's v0 before its uncut edges.
    rank = WeakFunction.flat_of(k, *_dissection_ranks(mesh))
    free = np.flatnonzero(WeakFunction.flat_of(k, np.ones(mesh.n_cells, dtype=bool),
                                               ~mesh.edge_boundary))
    pos = np.full(len(rank), -1, dtype=np.int32)
    pos[free[np.argsort(rank[free], kind="stable")]] = np.arange(len(free))
    return DofMap(pos=pos, constrained=constrained)


def _dissection_ranks(mesh):
    """Nested-dissection ranks of the cells and the edges.

    Each group of more than two cells is split in two.  Its cells are
    sorted by centroid along x and along y (equal coordinates by cell
    index), and of the split positions s with |s - size//2| <= size//5 on
    either axis, the one that cuts the fewest of the group's edges is
    taken.  Ties go to the longer side of the centroids' bounding box (x if
    the sides are equal), then to the s nearest size//2, then to the
    smaller s.  Groups of one or two cells are leaves, so the depth varies.
    A cell ranks with its leaf, an edge with the lowest common ancestor of
    its two cells' groups, in post-order of the tree: a node holds a run of
    the cell order and ranks by where the run ends, then by its length, so
    every node follows the nodes below it.
    """
    n = mesh.n_cells
    cells = np.concatenate([s.cells for s in mesh.stacks])
    centroid = np.concatenate([s.centroid for s in mesh.stacks])[np.argsort(cells)]
    # Cell c stands for itself along x and for c + n along y.  ``order``
    # holds the cells by group, then by x in [0, n) and by y in [n, 2n);
    # ``first`` marks where each group's run starts in either half, and
    # ``where`` inverts ``order``.
    coord = centroid.T.ravel()
    order = np.argsort(centroid.T, axis=1, kind="stable").ravel() + np.repeat([0, n], n)
    first = np.zeros(2 * n + 1, dtype=bool)
    first[[0, n, 2 * n]] = True
    where, step = np.empty(2 * n, dtype=np.intp), np.arange(2 * n)
    # The interior edges, each end along x and along y.  An edge cut at one
    # level is given its rank and then both ends of one cell, so it counts
    # in no later cut.
    inner = np.flatnonzero(mesh.edge_cells[:, 1] >= 0)
    ea, eb = (np.concatenate([c, c + n]) for c in mesh.edge_cells[inner].T)
    edge_rank = np.full(mesh.n_edges, -1, dtype=np.int64)   # -1 while uncut
    never = np.iinfo(np.int64).max
    while True:
        bounds = first.nonzero()[0]
        runs, run_size, groups = bounds[:-1], bounds[1:] - bounds[:-1], len(bounds) // 2
        run_id = first[:-1].cumsum() - 1                     # of each position
        start, size = runs[:groups], run_size[:groups]
        node = (start + size) * (n + 1) + size               # post-order rank
        if (largest := int(size.max())) <= 2:
            break
        c = coord[order[np.concatenate([runs, bounds[1:] - 1])]]
        extent = c[2 * groups:] - c[:2 * groups]             # last less first of each run
        # The split after position i, at offset d from the median, is
        # crossed by cut[i] edges.  Along each axis, the least (cut, |d|,
        # d > 0) within |d| <= size//5; between the axes, the fewer cut
        # edges, then the longer side.
        where[order] = step
        pa, pb = where[ea], where[eb]
        cut = (np.bincount(np.minimum(pa, pb), minlength=2 * n)
               - np.bincount(np.maximum(pa, pb), minlength=2 * n)).cumsum()
        d = step - (runs + run_size // 2 - 1)[run_id]
        far = np.abs(d)
        width = 2 * (largest // 5 + 1)                       # (|d|, d > 0) < width
        key = cut * width + far * 2 + (d > 0)
        key[far > (run_size // 5)[run_id]] = never
        best = np.minimum.reduceat(key, runs)
        at = (key == best[run_id]).nonzero()[0]              # the least of each run
        fewest = best // width
        fewest_x, fewest_y = fewest[:groups], fewest[groups:]
        use_y = np.where(fewest_y == fewest_x, extent[groups:] > extent[:groups],
                         fewest_y < fewest_x)
        cut_at = np.where(use_y, at[groups:] - n, at[:groups]) + 1
        cut_at = np.where(size > 2, cut_at, start)           # a leaf stays whole

        of = run_id[where[:n]]                               # group of each cell
        right = np.where(use_y[of], where[n:] - n, where[:n]) >= cut_at[of]
        side = np.concatenate([right, right])[order]
        order = order[(2 * run_id + side).argsort(kind="stable")]   # a stable partition
        first[np.concatenate([cut_at, cut_at + n])] = True

        a = ea[:len(inner)]
        cut = right[a] != right[eb[:len(inner)]]
        edge_rank[inner[cut]] = node[of[a[cut]]]
        cut = np.concatenate([cut, cut])
        eb[cut] = ea[cut]

    cell_rank = np.empty(n, dtype=np.int64)
    cell_rank[order[:n]] = node[run_id[:n]]
    uncut = edge_rank < 0
    edge_rank[uncut] = cell_rank[mesh.edge_cells[uncut, 0]]
    return cell_rank, edge_rank


@dataclass
class LinearSystem:
    """Reduced sparse system over free DOFs; boundary data already in b.

    ``A`` is exactly symmetric, as ``assemble`` builds it, and ``solve``
    relies on that.
    """

    A: sp.csr_matrix
    b: np.ndarray


def assemble(mesh, k, j, f, dofmap: DofMap, ops) -> LinearSystem:
    """Stiffness (Lw., Lw.) and load (f, v0) over free DOFs.

    ``ops`` is the list that ``element_operators`` builds for ``mesh``, k
    and j; the load is integrated under each operator's own cell rule, and
    ``j`` is not read.  The local stiffness is formed once per shape and
    gathered per cell a chunk at a time.  Row r of A holds the free columns
    of the cells that have DOF r: its cell for v0, the two cells of its
    edge for v_b and v_n, the lower first.  So each row's length is known in
    advance, the blocks go straight into A's CSR arrays, and no entry sums
    more than two terms, in either order: A is bit-reproducible.
    """
    n, dk = dofmap.n_free, dim_pk(k)
    positions = WeakFunction.from_flat(k, mesh.n_cells, dofmap.pos)
    idxs = [positions.local(op.stack) for op in ops]   # (nc, nloc), -1 if constrained
    width = np.zeros(mesh.n_cells, dtype=np.intp)      # free DOFs of each cell
    for op, idx in zip(ops, idxs):
        width[op.stack.cells] = np.count_nonzero(idx >= 0, axis=1)
    # A boundary edge's DOFs are constrained, so its missing cell is not read.
    length = WeakFunction.flat_of(k, width, width[mesh.edge_cells].sum(axis=1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1 + dofmap.pos[dofmap.pos >= 0]] = length[dofmap.pos >= 0]
    np.cumsum(indptr, out=indptr)  # A's index type now: a cast at the end would pin the heap
    indptr = indptr.astype(np.int32 if indptr[-1] < 2**31 else np.int64)
    cols, vals, b = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1]), np.zeros(n)
    for op, idx in zip(ops, idxs):
        stack = op.stack
        free = idx >= 0
        lo, hi = mesh.edge_cells[stack.edges].transpose(2, 0, 1)
        after = np.where(hi == stack.cells[:, None], width[lo], 0)  # the higher cell's offset
        start = indptr[idx]
        start[:, dk:] += np.repeat(after, 2 * k, axis=1)
        column = np.cumsum(free, axis=1) - 1             # place among the cell's free DOFs
        kshape = op.matrix.swapaxes(-1, -2) @ op.matrix  # (S, nloc, nloc)
        # Load (f, phi_i)_T on the v0 block, less the constrained columns,
        # which only cells with a constrained DOF have.
        rhs = np.zeros(idx.shape)
        for s, _, rows in _cell_chunks(stack, kshape[0].size):
            ke, pair = kshape[rows], free[s, :, None] & free[s, None, :]
            at = (start[s, :, None] + column[s, None, :])[pair]
            cols[at] = np.broadcast_to(idx[s, None, :], ke.shape)[pair]
            vals[at] = ke[pair]
            boundary = ~free[s].all(axis=1)
            g = dofmap.constrained.local(stack, s)[boundary]
            rhs[s][boundary] = -(ke[boundary] @ g[..., None])[..., 0]
        rhs[:, :dk] += op.moments(f, dk)
        # No sum of b depends on the order in which the stacks add to it.
        b += np.bincount(idx[free], weights=rhs[free], minlength=n)

    A = sp.csr_matrix((vals, cols, indptr), shape=(n, n))
    A.sum_duplicates()
    return LinearSystem(A=A, b=b)


def backward_error(system: LinearSystem, x) -> float:
    """Normwise backward error ||Ax - b|| / (||A|| ||x|| + ||b||).

    ||A|| is the 1-norm, taken as the largest row sum of |A|, which it is
    for the symmetric A of ``assemble``, over a chunk of rows at a time.
    """
    A, anorm = system.A, 0.0
    r = float(np.linalg.norm(A @ x - system.b))
    for s in _chunks(A.shape[0], int(np.diff(A.indptr).max(initial=1))):
        ptr = A.indptr[s.start:s.stop + 1]
        rows = sp.csr_matrix((np.abs(A.data[ptr[0]:ptr[-1]]), A.indices[ptr[0]:ptr[-1]],
                              ptr - ptr[0]), shape=(len(ptr) - 1, A.shape[1]))
        anorm = max(anorm, float((rows @ np.ones(A.shape[1])).max()))
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
    fill-reducing order.  It uses panels of ``PANEL_SIZE`` columns, so the
    panel workspace that lives beside the factors until ``splu`` returns
    stays a small part of the solve's peak.  The biharmonic stiffness is
    too ill conditioned to trust one factor-solve, and a residual measured
    against ||b|| alone has a floor of eps ||A|| ||x|| / ||b||, which grows
    like h^-4.
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
                       panel_size=PANEL_SIZE, options=dict(SymmetricMode=True))
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


def solve_biharmonic(mesh, k, j, f, boundary=None, tol=1e-12, *, ops) -> WeakFunction:
    """End-to-end solve: DOF map, assembly, sparse solve, expansion.

    ``boundary`` is an optional (g_d, g_n) pair; g_n is the solution's
    derivative along the fixed edge normals n_e.  ``ops`` are the element
    operators, as for ``assemble``, and ``j`` is not read.
    """
    g_d, g_n = boundary if boundary is not None else (None, None)
    dofmap = build_dof_map(mesh, k, g_d=g_d, g_n=g_n)
    system = assemble(mesh, k, j, f, dofmap, ops=ops)
    x = solve(system, tol=tol)
    return weak_function_from_free(dofmap, x)
