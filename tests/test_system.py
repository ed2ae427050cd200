import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sfwg
from sfwg import weakop
from sfwg.basis import dim_pk, from_legendre, legendre_values
from sfwg.errors import ExactSolution, error_2h, error_l2, error_triple
from sfwg.mesh import build_polygonal, build_triangular
from sfwg.quadrature import quad_cell
from sfwg.system import (
    PANEL_SIZE,
    DofMap,
    SolverError,
    _backward_error,
    _residual,
    assemble,
    build_dof_map,
    solve,
    solve_biharmonic,
    weak_function_from_free,
)
from sfwg.solutions import builtin_solution
from sfwg.weakop import (
    WeakFunction,
    cell_tables,
    element_operators,
    on_cells,
)

from test_mesh import cell_frames, perturbed
from test_weakop import interpolate_qh, local_dofs, per_cell


def zero_f(p):
    return np.zeros(len(p))


# u = 0: each error functional of a weak function against it is its norm.
ZERO = ExactSolution("zero", u=zero_f, grad=lambda p: np.zeros((len(p), 2)),
                     laplacian=zero_f, source=zero_f)


def test_free_dof_count():
    # n=1, k=2: 2 cells * 6 + 1 interior edge * 2 * 2 = 16
    mesh = build_triangular(1)
    dm = build_dof_map(mesh, 2)
    assert dm.n_free == 16
    assert len(dm.pos) == 12 + 2 * 2 * mesh.n_edges


def test_cell_dofs_marks_boundary_constrained():
    mesh = build_triangular(1)
    dm = build_dof_map(mesh, 2)
    loc = local_dofs(mesh, mesh.stacks[0], 2)[0]  # cell 0 is row 0
    idx, vals = dm.pos[loc], dm.constrained.flat()[loc]
    assert (idx[:6] == np.arange(6)).all()
    # exactly one of the three edges is interior
    n_constrained = int((idx < 0).sum())
    assert n_constrained == 2 * 2 * 2
    assert np.allclose(vals, 0.0)


def _tree_pos(mesh, k, split):
    """The free-DOF positions of a bisection tree: ``split(cells, depth)``
    returns a group's two halves, or None for a leaf.  Built by recursion
    over the groups and an explicit post-order count."""
    leaf_path, post, count = {}, {}, itertools.count()

    def visit(cells, path):
        halves = split(cells, len(path))
        if halves is None:
            leaf_path.update(dict.fromkeys(cells.tolist(), path))
        else:
            visit(halves[0], path + (0,))
            visit(halves[1], path + (1,))
        post[path] = next(count)

    visit(np.arange(mesh.n_cells), ())

    def lca(p, q):
        i = 0
        while i < len(p) and i < len(q) and p[i] == q[i]:
            i += 1
        return p[:i]

    cell_rank = [post[leaf_path[c]] for c in range(mesh.n_cells)]
    edge_rank = [post[lca(leaf_path[a], leaf_path[b if b >= 0 else a])]
                 for a, b in mesh.edge_cells.tolist()]
    rank = np.concatenate([np.repeat(cell_rank, dim_pk(k)),
                           np.tile(np.repeat(edge_rank, k), 2)])
    free = np.concatenate([np.ones(mesh.n_cells * dim_pk(k), dtype=bool),
                           np.tile(np.repeat(~mesh.edge_boundary, k), 2)])
    pos = np.full(len(free), -1)
    index = np.flatnonzero(free)
    pos[index[np.argsort(rank[index], kind="stable")]] = np.arange(len(index))
    return pos


def median_pos(mesh, k):
    """The numbering of the median rule: ceil(log2(n_cells / 2)) levels of
    bisection, each group at the median of its centroids along the longer
    side of their bounding box (x if the sides are equal)."""
    levels = max(0, math.ceil(math.log2(mesh.n_cells / 2)))
    centroid, _ = cell_frames(mesh)

    def split(cells, depth):
        if depth == levels:
            return None
        c = centroid[cells]
        extent = c.max(axis=0) - c.min(axis=0)
        cells = cells[np.argsort(c[:, 0 if extent[0] >= extent[1] else 1], kind="stable")]
        return cells[:len(cells) // 2], cells[len(cells) // 2:]

    return _tree_pos(mesh, k, split)


def dissection_pos(mesh, k):
    """The numbering of ``build_dof_map``: each group of more than two cells
    split at the position s, |s - size//2| <= size//5, along x or y, that
    cuts the fewest of its edges; ties to the longer side, then the s
    nearest size//2, then the smaller s.  Every cut is counted edge by edge."""
    centroid, _ = cell_frames(mesh)
    inner = mesh.edge_cells[mesh.edge_cells[:, 1] >= 0]

    def split(cells, depth):
        size, mid = len(cells), len(cells) // 2
        if size <= 2:
            return None
        extent = np.ptp(centroid[cells], axis=0)
        longer = 0 if extent[0] >= extent[1] else 1
        best = None
        for axis in (0, 1):
            ordered = cells[np.lexsort((cells, centroid[cells, axis]))]
            for s in range(mid - size // 5, mid + size // 5 + 1):
                side = np.full(mesh.n_cells, -1)
                side[ordered[:s]], side[ordered[s:]] = 0, 1
                ends = side[inner]
                cut = int(np.count_nonzero((ends >= 0).all(axis=1) & (ends[:, 0] != ends[:, 1])))
                key = (cut, axis != longer, abs(s - mid), s)
                if best is None or key < best[0]:
                    best = key, (ordered[:s], ordered[s:])
        return best[1]

    return _tree_pos(mesh, k, split)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_triangles_keep_the_median_numbering(n, k):
    # On a power-of-two triangulation the median cut is always among the
    # fewest, so the numbering, A and the triangular studies stay as they were.
    mesh = build_triangular(n)
    assert np.array_equal(build_dof_map(mesh, k).pos, median_pos(mesh, k))


def _natural_fill(mesh, k, pos):
    """L.nnz + U.nnz of the stiffness numbered by ``pos``, factored as ``solve`` does."""
    dm = build_dof_map(mesh, k)
    dm = DofMap(pos=pos.astype(np.int32), constrained=dm.constrained)
    A = assemble(mesh, k, k + 4, zero_f, dm, ops=element_operators(mesh, k, k + 4)).A
    lu = spla.splu(sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape),
                   permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   panel_size=PANEL_SIZE, options=dict(SymmetricMode=True))
    return lu.L.nnz + lu.U.nnz


def test_fewest_cut_numbering_fills_less_than_median_on_honeycomb():
    mesh = build_polygonal(16)
    assert (_natural_fill(mesh, 2, build_dof_map(mesh, 2).pos)
            < _natural_fill(mesh, 2, median_pos(mesh, 2)))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("make_mesh", [lambda: build_triangular(1),
                                       lambda: build_triangular(3),
                                       lambda: build_triangular(8),
                                       lambda: build_triangular(12),
                                       lambda: build_polygonal(8),
                                       lambda: perturbed(build_polygonal(4), seed=3)],
                         ids=["tri1", "tri3", "tri8", "tri12", "poly", "file"])
def test_free_dofs_numbered_once_in_dissection_order(make_mesh, k):
    mesh = make_mesh()
    dm = build_dof_map(mesh, k)
    free = dm.pos >= 0
    assert dm.pos.dtype == np.int32            # A's index type, as A's column indices
    assert np.array_equal(np.sort(dm.pos[free]), np.arange(dm.n_free))
    assert np.array_equal(build_dof_map(make_mesh(), k).pos, dm.pos)
    assert np.array_equal(dm.pos, dissection_pos(mesh, k))

    x = np.random.default_rng(5).standard_normal(dm.n_free)
    back = np.empty(dm.n_free)
    back[dm.pos[free]] = weak_function_from_free(dm, x).flat()[free]
    assert np.array_equal(back, x)

    # Each cell's v0 comes before the free DOFs of its edges, so that
    # eliminating v0 fills in nothing outside its own cell.
    for stack in mesh.stacks:
        loc = dm.pos[local_dofs(mesh, stack, k)]
        last_v0 = loc[:, :dim_pk(k)].max(axis=1)
        edge = loc[:, dim_pk(k):]
        assert (np.where(edge >= 0, edge, np.inf) > last_v0[:, None]).all()


def test_numbering_cuts_fill():
    # Factored as numbered, the stiffness fills less than under a
    # minimum-degree order of the same matrix, on triangles and on the
    # honeycomb.
    for mesh, k, j in [(build_triangular(32), 2, 4), (build_polygonal(32), 2, 6)]:
        dm = build_dof_map(mesh, k)
        system = assemble(mesh, k, j, zero_f, dm, ops=element_operators(mesh, k, j))
        a = system.A.tocsc()
        fill = {}
        for spec in ("NATURAL", "MMD_AT_PLUS_A"):
            lu = spla.splu(a, permc_spec=spec, diag_pivot_thresh=0.0,
                           panel_size=PANEL_SIZE, options=dict(SymmetricMode=True))
            fill[spec] = lu.L.nnz + lu.U.nnz
        assert fill["NATURAL"] < fill["MMD_AT_PLUS_A"], (mesh.n_cells, fill)


def test_zero_load_gives_zero_solution():
    mesh = build_triangular(2)
    u = solve_biharmonic(mesh, 2, 4, zero_f, ops=element_operators(mesh, 2, 4))
    assert np.allclose(u.v0, 0.0)
    assert np.allclose(u.vb, 0.0)
    assert np.allclose(u.vn, 0.0)


def test_solve_does_not_load_scipy_special():
    # A fresh interpreter: this test process has scipy.special loaded already.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import sfwg\n"
        "mesh = sfwg.build_triangular(2)\n"
        "u = sfwg.solve_biharmonic(mesh, 2, 4, lambda p: np.ones(len(p)),\n"
        "                          ops=sfwg.element_operators(mesh, 2, 4))\n"
        "assert np.isfinite(u.v0).all()\n"
        "sys.exit('scipy.special' in sys.modules)\n"
    )
    src = str(Path(sfwg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr or "scipy.special was imported"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the resident size from /proc")
def test_solve_grows_the_process_by_little_more_than_its_factors():
    # SuperLU's panel workspace, m x panel x 16 bytes, lives beside the
    # finished factors until splu returns, and the refinement's chunks after
    # it.  With PANEL_SIZE columns the process grows over the solve by at
    # most 1.15 x the skeleton's factors at 12 bytes
    # an entry; scipy's default panel of 20 grows it by 1.3 x and more.  A
    # fresh interpreter, warmed by a tiny solve, so that the peak since the
    # resident size is read is the solve's own.  The peak is VmHWM, its own
    # address space's: ru_maxrss would keep the peak of the process that
    # started it.
    code = (
        "import os\n"
        "import numpy as np\n"
        "import scipy.sparse as sp\n"
        "import scipy.sparse.linalg as spla\n"
        "import sfwg\n"
        "from sfwg.system import PANEL_SIZE, assemble, build_dof_map, solve\n"
        "def f(p):\n"
        "    return np.ones(len(p))\n"
        "warm = sfwg.build_triangular(2)\n"
        "sfwg.solve_biharmonic(warm, 2, 4, f, ops=sfwg.element_operators(warm, 2, 4))\n"
        "mesh = sfwg.build_triangular(32)\n"
        "dm = build_dof_map(mesh, 2)\n"
        "system = assemble(mesh, 2, 4, f, dm, ops=sfwg.element_operators(mesh, 2, 4))\n"
        "with open('/proc/self/statm') as statm:\n"
        "    before = int(statm.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
        "solve(system)\n"
        "with open('/proc/self/status') as status:\n"
        "    hwm = next(line for line in status if line.startswith('VmHWM:'))\n"
        "grown = int(hwm.split()[1]) * 1024 - before\n"
        "S = system.skeleton\n"
        "lu = spla.splu(sp.csc_matrix((S.data, S.indices, S.indptr), shape=S.shape),\n"
        "               permc_spec='NATURAL', diag_pivot_thresh=0.0,\n"
        "               panel_size=PANEL_SIZE, options=dict(SymmetricMode=True))\n"
        "print(grown / (12 * (lu.L.nnz + lu.U.nnz)))\n"
    )
    src = str(Path(sfwg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    ratio = float(run.stdout)
    assert ratio <= 1.15, f"the solve grew the process by {ratio:.3f} x its factors"


def test_load_uses_each_operators_own_j():
    # assemble integrates the load at the operators' degree op.j,
    # so the j argument does not change the system.
    mesh = build_polygonal(3)
    dm = build_dof_map(mesh, 2)
    ops = element_operators(mesh, 2, 5)

    def f(p):
        return np.sin(3.0 * p[:, 0]) * np.exp(p[:, 1])

    a = assemble(mesh, 2, 5, f, dm, ops=ops)
    b = assemble(mesh, 2, 4, f, dm, ops=ops)
    assert (a.A != b.A).nnz == 0
    assert np.array_equal(a.b, b.b)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("builder,extra", [(build_triangular, 2), (build_polygonal, 4)],
                         ids=["tri", "poly"])
def test_load_and_error_triple_read_the_operators_rule(builder, extra, k):
    # The load and Pi_j lap u read each operator's own rule and table.  Both
    # rebuilt here from the cell rule of degree 2 op.j + 2 must
    # agree to roundoff, so that no rule degree moved.
    mesh, j = builder(4), k + extra
    ex = builtin_solution(1)
    dm = build_dof_map(mesh, k)
    ops = element_operators(mesh, k, j)
    system = assemble(mesh, k, j, ex.source, dm, ops=ops)
    u_h = weak_function_from_free(dm, solve(system))
    want_b, total = np.zeros(dm.n_free), 0.0
    for op in ops:
        ref, of = op.stack.shapes
        loc = local_dofs(mesh, op.stack, k)
        rule, vals = cell_tables(ref, op.j, 2 * op.j + 2)
        wvt = (rule.weights[..., None] * vals).swapaxes(-1, -2)
        # Clamped: every v0 DOF is free and no constrained column loads b.
        np.add.at(want_b, dm.pos[loc[:, :dim_pk(k)]],
                  per_cell(wvt[:, :dim_pk(k)], of, on_cells(ex.source, op.stack, rule, slice(None))))
        moments = per_cell(wvt, of, on_cells(ex.laplacian, op.stack, rule, slice(None)))
        diff = (from_legendre(op.r[of], moments[..., None])[..., 0]
                - per_cell(op.matrix, of, u_h.flat()[loc]))
        total += float(np.sum(diff * diff))
    assert np.abs(system.b - want_b).max() <= 1e-13 * np.abs(want_b).max()
    assert error_triple(ex, u_h, mesh, k, j, ops=ops) == pytest.approx(np.sqrt(total),
                                                                       rel=1e-13)


def test_matrix_symmetric():
    mesh = build_triangular(4)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, zero_f, dm, ops=element_operators(mesh, 2, 4))
    a = system.A
    asym = abs(a - a.T).max()
    assert asym <= 1e-12 * abs(a).max()


def test_matrix_positive_definite():
    mesh = build_triangular(2)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, zero_f, dm, ops=element_operators(mesh, 2, 4))
    w = np.linalg.eigvalsh(system.A.toarray())
    assert w.min() > 0.0


@pytest.mark.parametrize(
    "k,u,grad,lap",
    [
        (
            2,
            lambda p: p[:, 0] ** 2 - p[:, 0] * p[:, 1],
            lambda p: np.stack([2 * p[:, 0] - p[:, 1], -p[:, 0]], axis=-1),
            lambda p: np.full(len(p), 2.0),
        ),
        (
            3,
            lambda p: p[:, 0] ** 2 * p[:, 1] - p[:, 1] ** 3,
            lambda p: np.stack(
                [2 * p[:, 0] * p[:, 1], p[:, 0] ** 2 - 3 * p[:, 1] ** 2], axis=-1
            ),
            lambda p: -4 * p[:, 1],
        ),
    ],
)
@pytest.mark.parametrize("n", [2, 4])
def test_patch_reproduces_polynomials(k, u, grad, lap, n):
    # deg u <= k and f = lap^2 u = 0: the discrete solution with projected
    # boundary data is exactly the interpolant of u.
    mesh = build_triangular(n)
    uh = solve_biharmonic(mesh, k, k + 2, zero_f, boundary=(u, grad),
                          ops=element_operators(mesh, k, k + 2))
    qh = interpolate_qh(u, grad, mesh, k)
    err2 = 0.0
    centroid, diameter = cell_frames(mesh)
    for cell in range(mesh.n_cells):
        rule = quad_cell(mesh.vertices[mesh.cells[cell]], 2 * k)
        vals = legendre_values(rule.points, centroid[cell], diameter[cell], k)
        d = vals @ (uh.v0[cell] - qh.v0[cell])
        err2 += float(rule.weights @ d**2)
    assert np.sqrt(err2) <= 1e-8
    assert np.allclose(uh.vb, qh.vb, atol=1e-8)
    assert np.allclose(uh.vn, qh.vn, atol=1e-8)


def test_galerkin_orthogonality():
    # The residual of the solved system against any coefficient vector
    # vanishes; check with random test vectors.
    mesh = build_triangular(4)
    k, j = 2, 4

    def f(p):
        return np.sin(np.pi * p[:, 0]) * p[:, 1]

    dm = build_dof_map(mesh, k)
    system = assemble(mesh, k, j, f, dm, ops=element_operators(mesh, k, j))
    x = solve(system)
    r = system.A @ x - system.b
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.standard_normal(dm.n_free)
        assert abs(r @ v) <= 1e-9 * np.linalg.norm(v) * np.linalg.norm(system.b)


def test_solution_linearity():
    mesh = build_triangular(2)

    def f(p):
        return p[:, 0] * p[:, 1]

    ops = element_operators(mesh, 2, 4)
    u1 = solve_biharmonic(mesh, 2, 4, f, ops=ops)
    u2 = solve_biharmonic(mesh, 2, 4, lambda p: 2.0 * f(p), ops=ops)
    assert np.allclose(u2.v0, 2.0 * u1.v0, atol=1e-10)
    assert np.allclose(u2.vb, 2.0 * u1.vb, atol=1e-10)


def test_solve_meets_backward_error_tolerance():
    mesh = build_triangular(8)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, lambda p: np.ones(len(p)), dm,
                      ops=element_operators(mesh, 2, 4))
    x = solve(system, tol=1e-12)
    assert _backward_error(system, x, _residual(system, x)) <= 1e-12


def test_solve_raises_on_unreachable_tolerance():
    mesh = build_triangular(4)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, lambda p: np.ones(len(p)), dm,
                      ops=element_operators(mesh, 2, 4))
    with pytest.raises(SolverError, match="backward error"):
        solve(system, tol=1e-30)


def test_solve_raises_on_nan_source():
    # NaN fails every comparison, so a check of ``err > tol`` lets it
    # through; the solve must accept only ``err <= tol``.
    mesh = build_triangular(4)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, lambda p: np.full(len(p), np.nan), dm,
                      ops=element_operators(mesh, 2, 4))
    with pytest.raises(SolverError, match="backward error nan"):
        solve(system)


def test_solve_raises_on_singular_psd_matrix():
    # An element-built system whose skeleton is singular, positive
    # semidefinite and has a positive diagonal: the factorization fails.
    mesh = build_triangular(1)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, lambda p: np.ones(len(p)), dm, ops=element_operators(mesh, 2, 4))
    n = system.skeleton.shape[0]
    singular = dataclasses.replace(system, skeleton=sp.csr_matrix(np.ones((n, n))))
    with pytest.raises(SolverError, match="factorization failed"):
        solve(singular)


def test_solve_takes_csr_with_unsorted_indices():
    # The factored matrix shares the skeleton's arrays, and splu sorts the
    # indices of what it is given in place; the skeleton must come out
    # unchanged.
    mesh = build_triangular(4)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, lambda p: np.ones(len(p)), dm,
                      ops=element_operators(mesh, 2, 4))
    S = system.skeleton
    rev = np.concatenate([np.arange(a, b)[::-1] for a, b in zip(S.indptr[:-1], S.indptr[1:])])
    unsorted = sp.csr_matrix((S.data[rev], S.indices[rev], S.indptr.copy()), shape=S.shape)
    assert not unsorted.has_sorted_indices
    x = solve(dataclasses.replace(system, skeleton=unsorted))
    assert (unsorted != S).nnz == 0
    assert np.array_equal(x, solve(system))


def test_solve_matches_dense_solve():
    mesh = build_triangular(4)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, lambda p: np.cos(p[:, 0]) + p[:, 1], dm,
                      ops=element_operators(mesh, 2, 4))
    x = solve(system)
    ref = np.linalg.solve(system.A.toarray(), system.b)
    assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref)


@pytest.mark.parametrize("builder,j", [(build_triangular, 4), (build_polygonal, 6)],
                         ids=["tri", "poly"])
def test_energy_norm_positive_on_free_space(builder, j):
    # build_polygonal(4) has cells of 4, 5 and 6 vertices: one stack each.
    mesh = builder(4)
    k = 2
    dm = build_dof_map(mesh, k)
    ops = element_operators(mesh, k, j)
    system = assemble(mesh, k, j, zero_f, dm, ops=ops)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.standard_normal(dm.n_free)
        quad = float(x @ (system.A @ x))
        assert quad > 0.0
        v = weak_function_from_free(dm, x)
        assert error_triple(ZERO, v, mesh, k, j, ops=ops) == pytest.approx(
            np.sqrt(quad), rel=1e-9
        )


# Reference forms of assembly and of the solve: int64 triplets gathered per
# stack and concatenated, the load by np.add.at, and the factorization of a
# copy of A converted to CSC.  ``assemble`` and ``solve`` must reproduce
# them bit for bit.

def _boundary_u(p):
    return p[:, 0] ** 2 * p[:, 1] - p[:, 1] ** 3 + p[:, 0]


def _boundary_grad(p):
    return np.stack([2 * p[:, 0] * p[:, 1] + 1.0, p[:, 0] ** 2 - 3 * p[:, 1] ** 2], axis=-1)


def reference_assemble(mesh, k, f, dm, ops):
    n = dm.n_free
    constrained = dm.constrained.flat()
    rows, cols, vals = [], [], []
    b = np.zeros(n)
    for op in ops:
        loc = local_dofs(mesh, op.stack, k)
        idx = dm.pos[loc].astype(np.int64)
        free = idx >= 0
        ke = (op.matrix.swapaxes(-1, -2) @ op.matrix)[op.stack.shapes[1]]
        pair = free[:, :, None] & free[:, None, :]
        rows.append(np.broadcast_to(idx[:, :, None], ke.shape)[pair])
        cols.append(np.broadcast_to(idx[:, None, :], ke.shape)[pair])
        vals.append(ke[pair])
        rhs = -(ke @ constrained[loc][..., None])[..., 0]
        rhs[:, :dim_pk(k)] += op.moments(f, dim_pk(k))
        np.add.at(b, idx[free], rhs[free])
    A = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    return A, b


def reference_residual(system, x):
    """load - sum_T B^T (B z_T), all cells of a stack at once, by np.add.at."""
    mesh, dm = system.mesh, system.dofmap
    full = weak_function_from_free(dm, x).flat()
    kx = np.zeros(len(x))
    for op in system.ops:
        loc = local_dofs(mesh, op.stack, dm.constrained.k)
        idx = dm.pos[loc]
        b = op.matrix[op.stack.shapes[1]]
        kz = (b.swapaxes(-1, -2) @ (b @ full[loc][..., None]))[..., 0]
        np.add.at(kx, idx[idx >= 0], kz[idx >= 0])
    return system.load - kx


def reference_backward_error(system, x):
    """||r|| / (||A||_1 ||x|| + ||b||), ||A||_1 bounded by the row sums of
    every cell's |K| over its free columns."""
    mesh, dm = system.mesh, system.dofmap
    rowsum = np.zeros(len(x))
    for op in system.ops:
        idx = dm.pos[local_dofs(mesh, op.stack, dm.constrained.k)]
        kabs = np.abs(op.matrix.swapaxes(-1, -2) @ op.matrix)
        rows = kabs.sum(axis=-1)[op.stack.shapes[1]]
        cut = ~(idx >= 0).all(axis=1)        # cells with a constrained DOF
        rows[cut] = (kabs[op.stack.shapes[1][cut]]
                     @ (idx[cut] >= 0)[..., None].astype(float))[..., 0]
        np.add.at(rowsum, idx[idx >= 0], rows[idx >= 0])
    r = float(np.linalg.norm(reference_residual(system, x)))
    return r / (rowsum.max() * float(np.linalg.norm(x)) + float(np.linalg.norm(system.b)))


def reference_solve(system, tol=1e-12):
    """The condensed solve, from a CSC copy of the skeleton and each
    shape's own QR of its v0 columns, gathered per cell, refined against the reference
    residual until a correction no longer halves the one before or falls to
    roundoff of x, or the next one would (its size squared over the one
    before's)."""
    mesh, dm = system.mesh, system.dofmap
    k = dm.constrained.k
    dk = dim_pk(k)
    lu = spla.splu(system.skeleton.tocsc(copy=True), permc_spec="NATURAL",
                   diag_pivot_thresh=0.0, panel_size=PANEL_SIZE,
                   options=dict(SymmetricMode=True))
    spos = system.skeleton_pos
    skeleton = np.sort(dm.pos[spos >= 0])
    parts = []
    for op in system.ops:
        q, rr = np.linalg.qr(op.matrix[..., :dk])
        rinv = np.linalg.inv(rr)
        w = rinv @ (q.swapaxes(-1, -2) @ op.matrix[..., dk:])
        loc, of = local_dofs(mesh, op.stack, k), op.stack.shapes[1]
        parts.append((rinv[of], w[of], dm.pos[loc[:, :dk]], spos[loc[:, dk:]]))

    def condensed(r):
        wr = np.zeros(len(skeleton))
        for rinv, w, v0, at in parts:
            t = (w.swapaxes(-1, -2) @ r[v0][..., None])[..., 0]
            np.add.at(wr, at[at >= 0], t[at >= 0])
        xs = lu.solve(r[skeleton] - wr)
        x = np.empty(len(r))
        x[skeleton] = xs
        for rinv, w, v0, at in parts:
            xe = np.where(at >= 0, xs[np.maximum(at, 0)], 0.0)
            y = rinv.swapaxes(-1, -2) @ r[v0][..., None]
            x[v0] = (rinv @ y)[..., 0] - (w @ xe[..., None])[..., 0]
        return x

    x = condensed(system.b)
    last = float(np.linalg.norm(x))
    eps = np.finfo(float).eps
    for _ in range(10):
        dx = condensed(reference_residual(system, x))
        size = float(np.linalg.norm(dx))
        if not size <= 0.5 * last or size <= eps * float(np.linalg.norm(x)):
            break
        x = x + dx
        if size * (size / last) <= eps * float(np.linalg.norm(x)):
            break
        last = size
    if reference_backward_error(system, x) <= tol:
        return x
    raise AssertionError("reference refinement did not meet the tolerance")


REFERENCE_MESHES = {
    "tri8": (lambda: build_triangular(8), 2),
    "honeycomb8": (lambda: build_polygonal(8), 4),
    "perturbed4": (lambda: perturbed(build_polygonal(4), seed=3), 4),
}


def reference_case(name, k):
    """A mesh, its DOF map with nonzero boundary data, its operators and
    the system that ``assemble`` builds from them."""
    make, extra = REFERENCE_MESHES[name]
    mesh = make()
    dm = build_dof_map(mesh, k, g_d=_boundary_u, g_n=_boundary_grad)
    ops = element_operators(mesh, k, k + extra)
    f = builtin_solution(1).source
    return mesh, dm, ops, f, assemble(mesh, k, k + extra, f, dm, ops=ops)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", REFERENCE_MESHES)
def test_assembled_matrix_is_exactly_symmetric(name, k):
    # ``solve`` reads A's CSR arrays as CSC arrays, which needs A == A^T.
    A = reference_case(name, k)[-1].A
    assert (A != A.T).nnz == 0


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", REFERENCE_MESHES)
def test_assemble_matches_int64_triplet_reference(name, k, monkeypatch):
    mesh, dm, ops, f, system = reference_case(name, k)
    assert np.any(dm.constrained.flat() != 0.0)
    want_a, want_b = reference_assemble(mesh, k, f, dm, ops)
    # Chunks of a few cells each, as on a mesh far larger than these.
    monkeypatch.setattr(weakop, "CHUNK", 3 * ops[0].matrix.shape[-1] ** 2)
    chunked = assemble(mesh, k, ops[0].j, f, dm, ops=ops)
    for got in (system, chunked):
        for a, ref in [(got.A.indptr, want_a.indptr), (got.A.indices, want_a.indices),
                       (got.A.data, want_a.data), (got.b, want_b)]:
            assert _same_bits(a, ref)


@pytest.mark.parametrize("gather", ["stiffness", "moments", "triple", "apply", "2h", "l2"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", REFERENCE_MESHES)
def test_gathers_in_chunks_of_shape_count_match_one_chunk(name, k, gather, monkeypatch):
    # CHUNK set so that one gather takes as many cells of a stack at a time
    # as the stack has shapes: a chunk's slice of the shape index is then
    # as long as the per-shape arrays, mostly without being their identity.
    # Assembly, the moments, the weak Laplacian and the three error
    # functionals keep every bit.
    mesh, dm, ops, f, _ = reference_case(name, k)
    ex = builtin_solution(1)
    x = np.random.default_rng(23).standard_normal(len(dm.pos))
    u_h = WeakFunction.from_flat(k, mesh.n_cells, x)

    def results():
        system = assemble(mesh, k, ops[0].j, f, dm, ops=ops)
        return ([system.A.indptr, system.A.indices, system.A.data, system.b]
                + [op.moments(f, dim_pk(op.j)) for op in ops] + [op.apply(u_h) for op in ops],
                (error_triple(ex, u_h, mesh, k, ops[0].j, ops=ops), error_2h(ex, u_h, mesh, k),
                 error_l2(ex, u_h, mesh)))

    monkeypatch.setattr(weakop, "CHUNK", 1 << 62)
    want, want_errors = results()
    for op in ops:
        # The per-cell sizes of error_2h and error_l2: their cell table and,
        # for error_2h, the two edge projections of a cell's u_h0.
        vals = cell_tables(op.stack.shapes[0], k, 2 * k + 6)[1]
        qb_size = op.stack.polygons.shape[1] * k * dim_pk(k)
        per_cell_size = {"stiffness": op.matrix.shape[-1] ** 2, "moments": op.table[0].size,
                         "triple": op.r[0].size, "apply": op.matrix[0].size,
                         "2h": vals[0].size + 2 * qb_size, "l2": vals[0].size}[gather]
        monkeypatch.setattr(weakop, "CHUNK", len(op.r) * per_cell_size)
        got, got_errors = results()
        assert all(_same_bits(a, b) for a, b in zip(got, want, strict=True))
        assert got_errors == want_errors


def _traced_peak(call):
    """The result of ``call()`` and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_assembly_and_backward_error_memory_is_bounded():
    # The skeleton goes straight into its CSR arrays, with no triplets and no
    # second copy, and every per-cell gather is bounded by CHUNK; the element
    # residual takes a chunk of cells at a time and gathers no per-cell copy
    # of a per-shape array, so nothing the size of the system sits by the
    # factors.
    mesh, k = build_triangular(64), 2
    dm = build_dof_map(mesh, k, g_d=_boundary_u, g_n=_boundary_grad)
    ops = element_operators(mesh, k, k + 2)
    f = builtin_solution(1).source
    system, peak = _traced_peak(lambda: assemble(mesh, k, k + 2, f, dm, ops=ops))
    S = system.skeleton
    arrays = [S.data, S.indices, S.indptr, system.skeleton_pos, system.load, system.b]
    result = sum(a.nbytes for a in arrays + [a for pair in system.factors for a in pair])
    assert peak <= 2 * result, f"assemble: peak {peak / result:.2f} x the result"
    x = np.ones(dm.n_free)
    _, peak = _traced_peak(lambda: _backward_error(system, x, _residual(system, x)))
    assert peak <= 0.25 * result, f"backward_error: peak {peak / result:.2f} x the system"
    assert "A" not in vars(system)


def test_error_functionals_memory_is_bounded(monkeypatch):
    # The error functionals evaluate u, gather u_h's DOFs and apply the
    # per-shape tables a chunk of cells at a time: with chunks of 2^14
    # numbers, none holds half the bytes of the weak function it measures.
    mesh, k = build_triangular(64), 2
    x = np.random.default_rng(29).standard_normal(len(build_dof_map(mesh, k).pos))
    u_h, ex = WeakFunction.from_flat(k, mesh.n_cells, x), builtin_solution(1)
    ops = element_operators(mesh, k, k + 2)
    monkeypatch.setattr(weakop, "CHUNK", 1 << 14)
    for name, call in [("error_triple", lambda: error_triple(ex, u_h, mesh, k, k + 2, ops=ops)),
                       ("error_2h", lambda: error_2h(ex, u_h, mesh, k)),
                       ("error_l2", lambda: error_l2(ex, u_h, mesh))]:
        _, peak = _traced_peak(call)
        assert peak <= 0.5 * x.nbytes, f"{name}: peak {peak / x.nbytes:.2f} x the weak function"


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", REFERENCE_MESHES)
def test_error_functionals_in_chunks_match_one_chunk(name, k, monkeypatch):
    make, extra = REFERENCE_MESHES[name]
    mesh, ex = make(), builtin_solution(1)
    x = np.random.default_rng(31).standard_normal(len(build_dof_map(mesh, k).pos))
    u_h = WeakFunction.from_flat(k, mesh.n_cells, x)
    ops = element_operators(mesh, k, k + extra)

    def results():
        return (error_triple(ex, u_h, mesh, k, k + extra, ops=ops),
                error_2h(ex, u_h, mesh, k), error_l2(ex, u_h, mesh))

    monkeypatch.setattr(weakop, "CHUNK", 1 << 62)
    want = results()
    # A few cells per chunk, as on a mesh far larger than these.
    monkeypatch.setattr(weakop, "CHUNK", 3 * 6 * dim_pk(k) ** 2)
    assert results() == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", REFERENCE_MESHES)
def test_solve_matches_csc_copy_reference(name, k, monkeypatch):
    system = reference_case(name, k)[-1]
    x = solve(system)
    assert _same_bits(x, reference_solve(system))
    want = reference_backward_error(system, x)
    assert _backward_error(system, x, _residual(system, x)) == want
    # A few cells per chunk, as on a mesh far larger than these.
    monkeypatch.setattr(weakop, "CHUNK", 3 * system.ops[0].matrix[0].size)
    assert _same_bits(solve(system), x)
    assert _backward_error(system, x, _residual(system, x)) == want


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", REFERENCE_MESHES)
def test_skeleton_is_the_schur_complement_of_A(name, k):
    # Eliminating every v0 from the full stiffness, densely, gives the
    # skeleton that ``assemble`` writes from the condensed cells.
    system = reference_case(name, k)[-1]
    S, A = system.skeleton, system.A.toarray()
    edge = np.sort(system.dofmap.pos[system.skeleton_pos >= 0])
    v0 = np.setdiff1d(np.arange(A.shape[0]), edge)
    schur = (A[np.ix_(edge, edge)]
             - A[np.ix_(edge, v0)] @ np.linalg.solve(A[np.ix_(v0, v0)], A[np.ix_(v0, edge)]))
    assert np.abs(S.toarray() - schur).max() <= 1e-12 * np.abs(schur).max()
    assert (S != S.T).nnz == 0


def test_solves_leave_the_full_stiffness_unbuilt(monkeypatch):
    systems = []
    real = sfwg.system.solve

    def keep(system, tol=1e-12):
        systems.append(system)
        return real(system, tol=tol)

    monkeypatch.setattr(sfwg.system, "solve", keep)
    mesh = build_polygonal(4)
    solve_biharmonic(mesh, 2, 6, builtin_solution(1).source, ops=element_operators(mesh, 2, 6))
    sfwg.run_study(sfwg.StudyConfig(k=2, levels=[2, 4]))
    assert len(systems) == 3
    assert all("A" not in vars(system) for system in systems)


def test_v0_block_not_positive_definite_raises():
    # With the v0 columns of one shape zeroed, K_00 of its cells is zero.
    mesh = build_triangular(2)
    ops = element_operators(mesh, 2, 4)
    matrix = ops[0].matrix.copy()
    matrix[0, :, :dim_pk(2)] = 0.0
    bad = [dataclasses.replace(ops[0], matrix=matrix)] + ops[1:]
    with pytest.raises(SolverError, match="^v0 block of cell 0 is not positive definite$"):
        solve_biharmonic(mesh, 2, 4, lambda p: np.ones(len(p)), ops=bad)


@pytest.mark.parametrize("name,k", [("tri8", 2), ("honeycomb8", 3)])
def test_solve_is_scale_equivariant(name, k):
    # Scaling every v0 DOF by one power of two and the v_b and v_n DOFs by
    # one each per slot scales B's columns, the load and the constrained
    # values exactly.  With diagonal pivots, eliminating D S D computes the
    # skeleton's factors scaled by D, and the element residual scales with
    # the load, so the scaling changes no digit of the solution, and
    # ``solve`` applies none.
    mesh, dm, ops, f, system = reference_case(name, k)
    rng = np.random.default_rng(14)
    d0 = float(np.ldexp(1.0, rng.integers(-8, 9)))
    de = np.ldexp(1.0, rng.integers(-8, 9, size=2 * k))
    d = WeakFunction(k, np.full((mesh.n_cells, dim_pk(k)), d0),
                     np.tile(de[:k], (mesh.n_edges, 1)), np.tile(de[k:], (mesh.n_edges, 1)))
    scaled_ops = [dataclasses.replace(op, matrix=op.matrix * d.local(op.stack, slice(0, 1)))
                  for op in ops]
    constrained = WeakFunction.from_flat(k, mesh.n_cells, dm.constrained.flat() / d.flat())
    scaled = assemble(mesh, k, ops[0].j, lambda p: d0 * f(p),
                      DofMap(pos=dm.pos, constrained=constrained), ops=scaled_ops)
    free = dm.pos >= 0
    scale = np.empty(dm.n_free)
    scale[dm.pos[free]] = d.flat()[free]
    assert _same_bits(solve(scaled) * scale, solve(system))
