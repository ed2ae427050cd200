import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sfwg.basis import dim_pk, from_legendre, legendre_values
from sfwg.errors import ZERO, error_triple
from sfwg.mesh import build_polygonal, build_triangular
from sfwg.quadrature import quad_cell
from sfwg.system import (
    LinearSystem,
    SolverError,
    assemble,
    backward_error,
    build_dof_map,
    solve,
    solve_biharmonic,
    weak_function_from_free,
)
from sfwg.solutions import builtin_solution
from sfwg.weakop import (
    apply_weak_laplacian,
    cell_rule_degree,
    cell_tables,
    element_operators,
    interpolate_qh,
    local_dofs,
    on_cells,
    per_cell,
)

from test_mesh import cell_frames, perturbed


def zero_f(p):
    return np.zeros(len(p))


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


def dissection_pos(mesh, k):
    """The numbering of ``build_dof_map``, built by recursion over the
    groups of the bisection and an explicit post-order count."""
    levels = max(0, math.ceil(math.log2(mesh.n_cells / 2)))
    leaf_path, post, count = {}, {}, itertools.count()

    def visit(cells, path):
        if len(path) < levels:
            c = centroid[cells]
            extent = c.max(axis=0) - c.min(axis=0)
            cells = cells[np.argsort(c[:, 0 if extent[0] >= extent[1] else 1],
                                     kind="stable")]
            visit(cells[:len(cells) // 2], path + (0,))
            visit(cells[len(cells) // 2:], path + (1,))
        else:
            leaf_path.update(dict.fromkeys(cells.tolist(), path))
        post[path] = next(count)

    centroid, _ = cell_frames(mesh)
    visit(np.arange(mesh.n_cells), ())

    def lca(p, q):
        i = 0
        while i < len(p) and p[i] == q[i]:
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


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("make_mesh", [lambda: build_triangular(1),
                                       lambda: build_triangular(3),
                                       lambda: build_triangular(8),
                                       lambda: build_polygonal(8),
                                       lambda: perturbed(build_polygonal(4), seed=3)],
                         ids=["tri1", "tri3", "tri8", "poly", "file"])
def test_free_dofs_numbered_once_in_dissection_order(make_mesh, k):
    mesh = make_mesh()
    dm = build_dof_map(mesh, k)
    free = dm.pos >= 0
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
    # minimum-degree order of the same matrix.
    mesh = build_triangular(32)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, zero_f, dm)
    a = system.A.tocsc()
    fill = {}
    for spec in ("NATURAL", "MMD_AT_PLUS_A"):
        lu = spla.splu(a, permc_spec=spec, diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
        fill[spec] = lu.L.nnz + lu.U.nnz
    assert fill["NATURAL"] < fill["MMD_AT_PLUS_A"]


def test_zero_load_gives_zero_solution():
    mesh = build_triangular(2)
    u = solve_biharmonic(mesh, 2, 4, zero_f)
    assert np.allclose(u.v0, 0.0)
    assert np.allclose(u.vb, 0.0)
    assert np.allclose(u.vn, 0.0)


def test_load_uses_each_operators_own_j():
    # Given operators, assemble integrates the load at their degree op.j,
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
    # rebuilt here from the cell rule of degree cell_rule_degree(op.j) must
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
        rule, vals = cell_tables(ref, op.j, cell_rule_degree(op.j))
        wvt = (rule.weights[..., None] * vals).swapaxes(-1, -2)
        # Clamped: every v0 DOF is free and no constrained column loads b.
        np.add.at(want_b, dm.pos[loc[:, :dim_pk(k)]],
                  per_cell(wvt[:, :dim_pk(k)], of, on_cells(ex.source, op.stack, rule)))
        moments = per_cell(wvt, of, on_cells(ex.laplacian, op.stack, rule))
        diff = (from_legendre(op.r[of], moments[..., None])[..., 0]
                - apply_weak_laplacian(op, u_h.flat()[loc]))
        total += float(np.sum(diff * diff))
    assert np.abs(system.b - want_b).max() <= 1e-13 * np.abs(want_b).max()
    assert error_triple(ex, u_h, mesh, k, j, ops=ops) == pytest.approx(np.sqrt(total),
                                                                       rel=1e-13)


def test_matrix_symmetric():
    mesh = build_triangular(4)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, zero_f, dm)
    a = system.A
    asym = abs(a - a.T).max()
    assert asym <= 1e-12 * abs(a).max()


def test_matrix_positive_definite():
    mesh = build_triangular(2)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, zero_f, dm)
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
    uh = solve_biharmonic(mesh, k, k + 2, zero_f, boundary=(u, grad))
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
    system = assemble(mesh, k, j, f, dm)
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

    u1 = solve_biharmonic(mesh, 2, 4, f)
    u2 = solve_biharmonic(mesh, 2, 4, lambda p: 2.0 * f(p))
    assert np.allclose(u2.v0, 2.0 * u1.v0, atol=1e-10)
    assert np.allclose(u2.vb, 2.0 * u1.vb, atol=1e-10)


def test_solve_meets_backward_error_tolerance():
    mesh = build_triangular(8)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, lambda p: np.ones(len(p)), dm)
    x = solve(system, tol=1e-12)
    assert backward_error(system, x) <= 1e-12


def test_solve_raises_on_unreachable_tolerance():
    mesh = build_triangular(4)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, lambda p: np.ones(len(p)), dm)
    with pytest.raises(SolverError, match="backward error"):
        solve(system, tol=1e-18)


def test_solve_raises_on_nan_source():
    # NaN fails every comparison, so a check of ``err > tol`` lets it
    # through; the solve must accept only ``err <= tol``.
    mesh = build_triangular(4)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, lambda p: np.full(len(p), np.nan), dm)
    with pytest.raises(SolverError, match="backward error nan"):
        solve(system)


def test_solve_raises_on_singular_psd_matrix():
    system = LinearSystem(A=sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])),
                          b=np.array([1.0, 2.0]))
    with pytest.raises(SolverError, match="factorization failed"):
        solve(system)


def test_solve_takes_csr_with_unsorted_indices():
    # The factored matrix shares A's arrays, and splu sorts the indices of
    # what it is given in place; A must come out unchanged.
    mesh = build_triangular(4)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, lambda p: np.ones(len(p)), dm)
    A = system.A
    rev = np.concatenate([np.arange(a, b)[::-1] for a, b in zip(A.indptr[:-1], A.indptr[1:])])
    unsorted = sp.csr_matrix((A.data[rev], A.indices[rev], A.indptr.copy()), shape=A.shape)
    assert not unsorted.has_sorted_indices
    x = solve(LinearSystem(A=unsorted, b=system.b))
    assert (unsorted != A).nnz == 0
    assert np.array_equal(x, solve(system))


def test_solve_matches_dense_solve():
    mesh = build_triangular(4)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, lambda p: np.cos(p[:, 0]) + p[:, 1], dm)
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
    system = assemble(mesh, k, j, zero_f, dm)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.standard_normal(dm.n_free)
        quad = float(x @ (system.A @ x))
        assert quad > 0.0
        v = weak_function_from_free(dm, x)
        assert error_triple(ZERO, v, mesh, k, j) == pytest.approx(
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
    return LinearSystem(A=A, b=b)


def reference_backward_error(system, x):
    r = float(np.linalg.norm(system.A @ x - system.b))
    anorm = float(abs(system.A).sum(axis=0).max())
    return r / (anorm * float(np.linalg.norm(x)) + float(np.linalg.norm(system.b)))


def reference_solve(system, tol=1e-12):
    a = system.A.tocsc(copy=True)
    lu = spla.splu(a, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    x = np.zeros(a.shape[0])
    for _ in range(11):
        x = x + lu.solve(system.b - a @ x)
        if reference_backward_error(system, x) <= tol:
            return x
    raise AssertionError("reference refinement did not converge")


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
def test_assemble_matches_int64_triplet_reference(name, k):
    mesh, dm, ops, f, system = reference_case(name, k)
    assert np.any(dm.constrained.flat() != 0.0)
    want = reference_assemble(mesh, k, f, dm, ops)
    for got, ref in [(system.A.indptr, want.A.indptr), (system.A.indices, want.A.indices),
                     (system.A.data, want.A.data), (system.b, want.b)]:
        assert _same_bits(got, ref)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", REFERENCE_MESHES)
def test_solve_matches_csc_copy_reference(name, k):
    system = reference_case(name, k)[-1]
    x = solve(system)
    assert _same_bits(x, reference_solve(system))
    assert backward_error(system, x) == reference_backward_error(system, x)


@pytest.mark.parametrize("name,k", [("tri8", 2), ("honeycomb8", 3)])
def test_solve_is_scale_equivariant(name, k):
    # With diagonal pivots, eliminating D A D computes A's factors scaled by
    # D, exactly when D holds powers of two; so a scaling changes no digit
    # of the solution, and ``solve`` applies none.
    system = reference_case(name, k)[-1]
    A = system.A
    d = np.ldexp(1.0, np.random.default_rng(14).integers(-8, 9, size=A.shape[0]))
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    dad = sp.csr_matrix((A.data * d[rows] * d[A.indices], A.indices.copy(), A.indptr.copy()),
                        shape=A.shape)
    x = solve(LinearSystem(A=dad, b=d * system.b)) * d
    assert _same_bits(x, solve(system))
