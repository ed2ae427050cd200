"""Global DOF numbering, SPD assembly, and the sparse solve.

Numbering: the free v_b/v_n DOFs, the skeleton, come first, in a
nested-dissection order of the cells (George 1973; Lipton, Rose and Tarjan
1979; ``_dissection_ranks``), so ``assemble`` builds the skeleton in a
fill-reducing order and ``solve`` factors it as given: the edges cut
between two groups of cells separate them exactly, and each cut edge comes
after both groups.  Every cell's v0 block follows, cell by cell.  The ranks
are spread over the DOFs of the flat layout by ``WeakFunction.flat_of`` and
numbered by one stable sort.  Constrained DOFs are left out: the v_b/v_n
DOFs of boundary edges.  These are zero for the clamped problem, or the
edge projections of supplied boundary data (given relative to the fixed
edge normal n_e), and their stiffness columns are moved to the right-hand
side.  The load is read from the operators (``op.moments``).  Free
positions are int32, the index type of the sparse matrices, so they are
A's column indices as they stand.

Condensation: v0 couples only to its own cell's edges and is never
constrained, so ``assemble`` eliminates it cell by cell (static
condensation) and writes only the skeleton matrix, over the leading free
DOFs.  The full reduced stiffness A is built only when ``LinearSystem.A``
is read.

Solve: the skeleton factored as assembled, diagonal pivots, narrow SuperLU
panels, v0 recovered per cell, then refinement against the element residual
load - sum_T B^T (B z_T), which carries no rounding of the assembled
entries.  On the studies' levels the first correction moves x by 1e-13 to
3e-8 of its size, and one or two corrections are made.  Diagonal pivots
make a diagonal scaling inert, so none is applied.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import dim_pk, full_rank
from .mesh import Mesh
from .weakop import WeakFunction, _cell_chunks, project_edge_data


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

    ``pos`` (int32) is the DOF's position in the free vector, in the order
    of ``build_dof_map`` (the skeleton in nested-dissection order, then
    each cell's v0), or -1 where it is constrained; ``constrained`` holds
    the values of the constrained DOFs and zero at the free ones.
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
    # Every v0 ranks above every edge, so a stable sort puts the v0 blocks
    # last, in cell order.
    edge_rank = _dissection_ranks(mesh)
    rank = WeakFunction.flat_of(k, np.full(mesh.n_cells, edge_rank.max() + 1), edge_rank)
    free = np.flatnonzero(WeakFunction.flat_of(k, np.ones(mesh.n_cells, dtype=bool),
                                               ~mesh.edge_boundary))
    pos = np.full(len(rank), -1, dtype=np.int32)
    pos[free[np.argsort(rank[free], kind="stable")]] = np.arange(len(free))
    return DofMap(pos=pos, constrained=constrained)


def _dissection_ranks(mesh):
    """Nested-dissection ranks of the edges.

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
    return edge_rank


@dataclass
class LinearSystem:
    """The reduced system over the free DOFs, condensed onto the skeleton.

    ``skeleton`` is the matrix of the free v_b/v_n DOFs, the leading m of
    the free DOFs, once every cell's v0 is eliminated; it is exactly
    symmetric, as ``assemble`` builds it, and ``solve`` relies on that.
    ``factors`` holds, per operator and per shape, R^-1 and W = K_00^-1 K_0e,
    where K_00 = R^T R.  ``load`` is (f, v0) on the free DOFs, ``b`` the same
    less the constrained columns, and ``anorm`` bounds ||A||_1 by the row
    sums of every cell's |K| over its free columns.  ``positions``, the
    layout that the solve reads on each pass, is built once, and ``A``, the
    full reduced stiffness, only when it is read.
    """

    mesh: Mesh
    dofmap: DofMap
    ops: list
    skeleton: sp.csr_matrix
    factors: tuple
    load: np.ndarray
    b: np.ndarray
    anorm: float

    @cached_property
    def positions(self) -> WeakFunction:
        """``dofmap.pos`` laid out as a weak function, whose ``local`` gathers
        the free positions of a stack's local DOFs."""
        return WeakFunction.from_flat(self.dofmap.constrained.k, self.mesh.n_cells, self.dofmap.pos)

    @cached_property
    def A(self) -> sp.csr_matrix:
        """The stiffness (Lw., Lw.) over the free DOFs, exactly symmetric."""
        blocks = [op.matrix.swapaxes(-1, -2) @ op.matrix for op in self.ops]
        return _write_csr(self.mesh, self.dofmap.constrained.k, self.dofmap.pos, self.ops, blocks)


def _write_csr(mesh, k, pos, ops, blocks):
    """The matrix that sums, over the cells, the per-shape ``blocks`` of each
    operator over the DOFs that ``pos`` places (the flat layout, -1 where a
    DOF is left out).  A block covers the trailing local DOFs of a cell: all
    of them, or its edge DOFs alone.

    Row r holds the numbered columns of the cells that have DOF r: its cell
    for v0, the two cells of its edge for v_b and v_n, the lower first.  So
    each row's length is known in advance, the blocks go straight into the
    CSR arrays, a chunk of cells at a time, and no entry sums more than two
    terms, in either order: the matrix is bit-reproducible, and exactly
    symmetric when the blocks are.
    """
    n = int(np.count_nonzero(pos >= 0))
    positions = WeakFunction.from_flat(k, mesh.n_cells, pos)
    idxs = [positions.local(op.stack)[:, -block.shape[-1]:] for op, block in zip(ops, blocks)]
    width = np.zeros(mesh.n_cells, dtype=np.intp)      # numbered DOFs of each cell
    for op, idx in zip(ops, idxs):
        width[op.stack.cells] = np.count_nonzero(idx >= 0, axis=1)
    # A boundary edge's DOFs are constrained, so its missing cell is not read.
    length = WeakFunction.flat_of(k, width, width[mesh.edge_cells].sum(axis=1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1 + pos[pos >= 0]] = length[pos >= 0]
    np.cumsum(indptr, out=indptr)  # the index type now: a cast at the end would pin the heap
    indptr = indptr.astype(np.int32 if indptr[-1] < 2**31 else np.int64)
    cols, vals = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
    for op, idx, block in zip(ops, idxs, blocks):
        stack = op.stack
        free = idx >= 0
        lo, hi = mesh.edge_cells[stack.edges].transpose(2, 0, 1)
        after = np.where(hi == stack.cells[:, None], width[lo], 0)  # the higher cell's offset
        start = indptr[idx]
        start[:, -2 * k * stack.edges.shape[1]:] += np.repeat(after, 2 * k, axis=1)
        column = np.cumsum(free, axis=1, dtype=np.int32) - 1  # place among the cell's numbered DOFs
        for s, _, rows in _cell_chunks(stack, block[0].size):
            ke, pair = block[rows], free[s, :, None] & free[s, None, :]
            at = (start[s, :, None] + column[s, None, :])[pair]
            cols[at] = np.broadcast_to(idx[s, None, :], ke.shape)[pair]
            vals[at] = ke[pair]
    matrix = sp.csr_matrix((vals, cols, indptr), shape=(n, n))
    matrix.sum_duplicates()
    return matrix


def _condense(op, dk):
    """Static condensation of each shape's K = B^T B, B = ``op.matrix``,
    onto its edge DOFs.  With B = [B_0 B_e] and B_0 = Q R, K_00 = R^T R and
    the Schur complement K_ee - K_e0 K_00^-1 K_0e is P^T P, P = B_e - Q Q^T B_e,
    made exactly symmetric.  Returns ((R^-1, W = K_00^-1 K_0e), P^T P), each
    per shape; ``SolverError`` if a K_00 is not positive definite.
    """
    b0, be = op.matrix[..., :dk], op.matrix[..., dk:]
    q, r = np.linalg.qr(b0)
    ok = full_rank(r)
    if not ok.all():
        cell = op.stack.shapes[0].cells[~ok].min()
        raise SolverError(f"v0 block of cell {cell} is not positive definite")
    c = q.swapaxes(-1, -2) @ be
    p = be - q @ c
    s = p.swapaxes(-1, -2) @ p
    rinv = np.linalg.inv(r)
    return (rinv, rinv @ c), 0.5 * (s + s.swapaxes(-1, -2))


def assemble(mesh, k, j, f, dofmap: DofMap, ops) -> LinearSystem:
    """The skeleton matrix of the stiffness (Lw., Lw.), the load (f, v0) and
    what recovering v0 and refining need, over the free DOFs.

    ``ops`` is the list that ``element_operators`` builds for ``mesh``, k
    and j; the load is integrated under each operator's own cell rule, and
    ``j`` is not read.  Each shape's local stiffness is condensed onto its
    edge DOFs once (``_condense``), and the blocks are gathered per cell, a
    chunk at a time, straight into the skeleton's CSR arrays
    (``_write_csr``), over the first m = n_free - n_cells dim P_k free
    DOFs.  The constrained columns of K, which only cells with a
    constrained DOF have, move to ``b``.
    """
    n, dk = dofmap.n_free, dim_pk(k)
    positions = WeakFunction.from_flat(k, mesh.n_cells, dofmap.pos)
    factors, blocks = zip(*[_condense(op, dk) for op in ops])
    m = n - mesh.n_cells * dk
    skeleton = _write_csr(mesh, k, np.where(dofmap.pos < m, dofmap.pos, -1), ops, blocks)
    load, b, rowsum = np.zeros(n), np.zeros(n), np.zeros(n)
    for op in ops:
        stack = op.stack
        idx = positions.local(stack)                   # (nc, nloc), -1 if constrained
        free = idx >= 0
        kshape = op.matrix.swapaxes(-1, -2) @ op.matrix  # (S, nloc, nloc)
        kabs = np.abs(kshape)
        krow = kabs.sum(axis=-1)
        rhs, absrow = np.zeros(idx.shape), np.empty(idx.shape)
        for s, _, rows in _cell_chunks(stack, kshape[0].size):
            absrow[s] = krow[rows]
            boundary = ~free[s].all(axis=1)
            at = np.arange(len(kshape))[rows][boundary]
            g = dofmap.constrained.local(stack, s)[boundary]
            rhs[s][boundary] = -(kshape[at] @ g[..., None])[..., 0]
            absrow[s][boundary] = (kabs[at] @ free[s][boundary, :, None].astype(float))[..., 0]
        moments = op.moments(f, dk)
        load[idx[:, :dk]] = moments                     # v0 is never constrained
        rhs[:, :dk] += moments
        # No sum of b depends on the order in which the stacks add to it.
        b += np.bincount(idx[free], weights=rhs[free], minlength=n)
        rowsum += np.bincount(idx[free], weights=absrow[free], minlength=n)
    return LinearSystem(mesh=mesh, dofmap=dofmap, ops=ops, skeleton=skeleton,
                        factors=factors, load=load, b=b, anorm=float(rowsum.max(initial=0.0)))


def _per_shape(mats, rows, v):
    """mats[rows] @ v per cell, (nc, m), for per-shape ``mats`` (S, m, p),
    the rows of a chunk's cells (``CellStack.shape_rows``) and ``v``
    (nc, p): one batched product of views where each cell is its own shape,
    else one broadcast product per shape, so that no copy of ``mats`` is
    gathered per cell.  Either way each cell's product is its own, so the
    chunks do not change its bits.  A gathered ``mats[rows]``, up to CHUNK
    entries, would sit beside the factors on every pass: on tri n=32, k=2
    it took the solve's growth from 0.87 to 1.10-1.17 x the factors."""
    if isinstance(rows, slice):
        return (mats[rows] @ v[..., None])[..., 0]
    out = np.empty((len(v), mats.shape[1]))
    for s in np.unique(rows):
        at = rows == s
        out[at] = (mats[s] @ v[at][..., None])[..., 0]
    return out


def _residual(system: LinearSystem, x) -> np.ndarray:
    """The element residual load - sum_T B^T (B z_T) over the free DOFs,
    with z_T cell T's local vector of x, the constrained values filled in,
    a chunk of cells at a time.  A product per cell errs by about
    eps |B|^T |B z|, where b - A x errs by about eps |B|^T |B| |z|, larger by
    a factor that grows like h^-2 for a smooth solution.  No DOF has more
    than two cells, so the sum does not depend on the chunks."""
    positions = system.positions
    kx = np.zeros(len(x))
    for op in system.ops:
        bt = op.matrix.swapaxes(-1, -2)
        for _, c, rows in _cell_chunks(op.stack, op.matrix[0].size):
            idx, z = positions.local(op.stack, c), system.dofmap.constrained.local(op.stack, c)
            free = idx >= 0
            z[free] = x[idx[free]]
            kz = _per_shape(bt, rows, _per_shape(op.matrix, rows, z))
            kx += np.bincount(idx[free], weights=kz[free], minlength=len(kx))
    return np.subtract(system.load, kx, out=kx)


def _condensed_solve(system: LinearSystem, lu, r) -> np.ndarray:
    """A^-1 r through the condensed factors: the skeleton solve of
    r_e - sum_T W^T r_0 over the leading m free DOFs, then per cell
    v0 = K_00^-1 r_0 - W x_e, with x_e zero at the constrained DOFs."""
    positions, m = system.positions, system.skeleton.shape[0]
    dk = positions.v0.shape[1]
    wr = np.zeros(m)
    for op, (_, w) in zip(system.ops, system.factors):
        for _, c, rows in _cell_chunks(op.stack, w[0].size):
            at = positions.local(op.stack, c)[:, dk:]
            t = _per_shape(w.swapaxes(-1, -2), rows, r[positions.v0[op.stack.cells[c]]])
            wr += np.bincount(at[at >= 0], weights=t[at >= 0], minlength=m)
    x = np.empty(len(r))
    x[:m] = lu.solve(r[:m] - wr)
    for op, (rinv, w) in zip(system.ops, system.factors):
        for _, c, rows in _cell_chunks(op.stack, w[0].size):
            at, cell = positions.local(op.stack, c)[:, dk:], positions.v0[op.stack.cells[c]]
            xe = np.zeros(at.shape)
            xe[at >= 0] = x[at[at >= 0]]
            y = _per_shape(rinv.swapaxes(-1, -2), rows, r[cell])
            x[cell] = _per_shape(rinv, rows, y) - _per_shape(w, rows, xe)
    return x


def _backward_error(system: LinearSystem, x, r) -> float:
    """Normwise backward error ||r|| / (||A|| ||x|| + ||b||) of ``x``, with r
    its element residual (``_residual``) and ||A||_1 bounded by
    ``system.anorm``."""
    return float(np.linalg.norm(r)) / (system.anorm * float(np.linalg.norm(x))
                                       + float(np.linalg.norm(system.b)))


def solve(system: LinearSystem, tol: float = 1e-12) -> np.ndarray:
    """Solve the reduced SPD system to a normwise backward error of ``tol``.

    The skeleton is factored as assembled, with diagonal pivots only, and
    each cell's v0 recovered from it (``_condensed_solve``).  No scaling is
    needed: with diagonal pivots, eliminating D S D gives S's factors scaled
    by D, exactly when D holds powers of two.  SuperLU is handed the
    skeleton's own arrays as CSC arrays, so it must be exactly symmetric,
    as ``assemble`` builds it; any other is factored as its transpose, which
    only the refinement catches.  The factorization keeps the given order,
    the leading block of ``build_dof_map``'s numbering, and uses panels of
    ``PANEL_SIZE`` columns, so the panel workspace that lives beside the
    factors until ``splu`` returns stays a small part of the solve's peak.

    The solution is then refined against the element residual
    (``_residual``), each correction through the condensed factors.  The
    biharmonic stiffness is too ill conditioned to trust one factor-solve,
    and a residual b - A x formed from the assembled A has a floor that
    grows like h^-2 relative to the element residual's.  Refinement stops
    when a correction no longer halves the one before (the first is the
    solve itself) or falls to roundoff of x, or when the next one would:
    refinement contracts by about the ratio of a correction to the one
    before, so after a correction dx the next is about |dx|^2 / |dx_prev|.
    At most ten steps.  On the studies' levels the first correction moves
    x by 1e-13 to 1e-8 of its size, which predicts roundoff and stops it;
    where it moves x by about 3e-8 (tri n=64, k=3), a second of about 2e-14
    follows.  The prediction saves the correction that would only be
    computed to be rejected.  ``SolverError`` is raised if the
    factorization fails, if the first correction does not halve x (the
    factored matrix is numerically singular), or if the backward error (``_backward_error``) then misses
    ``tol`` (a NaN included).
    """
    if float(np.linalg.norm(system.b)) == 0.0:
        return np.zeros(len(system.b))

    S = system.skeleton
    S.sum_duplicates()                     # splu would sort the shared indices
    if np.any(S.diagonal() <= 0.0):
        raise SolverError("non-positive diagonal entry; matrix not SPD")
    try:
        lu = spla.splu(sp.csc_matrix((S.data, S.indices, S.indptr), shape=S.shape),
                       permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       panel_size=PANEL_SIZE, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    x = _condensed_solve(system, lu, system.b)
    last = float(np.linalg.norm(x))
    r = _residual(system, x)
    eps = np.finfo(float).eps
    for step in range(10):
        dx = _condensed_solve(system, lu, r)
        size = float(np.linalg.norm(dx))
        if step == 0 and size > 0.5 * last:
            raise SolverError("refinement does not converge: the factored matrix is "
                              "numerically singular")
        if not size <= 0.5 * last or size <= eps * float(np.linalg.norm(x)):
            break
        x += dx
        r = _residual(system, x)
        # Refinement contracts by about size / last a step, so the next
        # correction would be about size^2 / last: stop if that is roundoff.
        if size * (size / last) <= eps * float(np.linalg.norm(x)):
            break
        last = size
    err = _backward_error(system, x, r)
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
