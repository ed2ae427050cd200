import dataclasses
import re

import numpy as np
import pytest

from sfwg import weakop
from sfwg.basis import (
    dim_pk,
    edge_values,
    from_legendre,
    legendre_table,
    legendre_values,
    monomial_exponents,
)
from sfwg.mesh import build_polygonal, build_triangular, cell_stacks
from sfwg.quadrature import quad_cell, quad_edge
from sfwg.weakop import (
    WeakFunction,
    cell_tables,
    element_operators,
    on_cells,
    project_edge_data,
)
from test_mesh import cell_frames, edge_normal, perturbed


# Unchunked references, written apart from the program's gathers: the
# per-cell product with per-shape tables, and the local DOF layout as an
# index into WeakFunction.flat.

def per_cell(mats, of, vecs):
    """``mats[of[c]] @ vecs[c]`` for every cell c, (nc, m), from per-shape
    matrices (S, m, n) and per-cell vectors (nc, n), in one gather."""
    return (mats[of] @ vecs[..., None])[..., 0]


def local_dofs(mesh, stack, k):
    """Index of every local DOF of a stack's cells into ``WeakFunction.flat``,
    (nc, nloc): per cell its v0 block, then per local edge the (v_b, v_n)
    blocks."""
    dk = dim_pk(k)
    nc = len(stack.cells)
    v0 = stack.cells[:, None] * dk + np.arange(dk)
    vb = mesh.n_cells * dk + stack.edges[..., None] * k + np.arange(k)
    vn = vb + mesh.n_edges * k
    return np.concatenate([v0, np.concatenate([vb, vn], axis=-1).reshape(nc, -1)], axis=1)


def cell_stack(mesh, cell):
    """The stack of one cell: its row of the stored stack that holds it."""
    ((s, row),) = [(s, row) for s in mesh.stacks for row in np.flatnonzero(s.cells == cell)]
    return s.rows([row])


def one_cell_operator(mesh, cell, k, j):
    """The operator of one cell, built on a copy of the mesh whose only
    stack is that cell's."""
    return element_operators(dataclasses.replace(mesh, stacks=[cell_stack(mesh, cell)]), k, j)[0]


def zero_weak(mesh, k):
    return WeakFunction(
        k=k,
        v0=np.zeros((mesh.n_cells, dim_pk(k))),
        vb=np.zeros((mesh.n_edges, k)),
        vn=np.zeros((mesh.n_edges, k)),
    )


def interpolate_qh(u, grad_u, mesh, k):
    """The interpolant Q_h u of a smooth field into the weak space: v0 per
    cell its gathered mass matrix solved against the moments of u, and v_b
    and v_n the edge projections of the trace and of grad u . n_e."""
    v0 = np.empty((mesh.n_cells, dim_pk(k)))
    for stack in cell_stacks(mesh):
        ref, of = stack.shapes
        rule, vals = cell_tables(ref, k, 2 * k + 2)
        wvt = (rule.weights[..., None] * vals).swapaxes(-1, -2)
        moments = per_cell(wvt, of, on_cells(u, stack, rule, slice(None)))
        v0[stack.cells] = np.linalg.solve((wvt @ vals)[of], moments[..., None])[..., 0]
    vb, vn = project_edge_data(mesh, np.arange(mesh.n_edges), k, u, grad_u)
    return WeakFunction(k=k, v0=v0, vb=vb, vn=vn)


def local(v, mesh, op):
    """Local DOF vectors of v on the operator's cells, (nc, nloc)."""
    return v.flat()[local_dofs(mesh, op.stack, v.k)]


def psi_tables(op, pts, c=0):
    """Values and gradients (d/dx, d/dy) at ``pts`` of the orthonormal P_j
    basis psi = V R^-1 of the operator's cell c, with the R of its shape."""
    s = op.stack
    return [from_legendre(op.r[s.shapes[1][c]], t.T).T
            for t in legendre_table(pts, s.centroid[c], s.diameter[c], op.j)]


def sigma_of(mesh, cell, e):
    """sigma of edge e in the given cell."""
    stack = cell_stack(mesh, cell)
    return stack.sigma[0][stack.edges[0] == e].item()


def test_rejects_j_not_exceeding_k():
    mesh = build_triangular(1)
    with pytest.raises(ValueError, match="j=2"):
        element_operators(mesh, 2, 2)
    # j = k+1: 2k nv edge DOFs map into P_{k+1}, a kernel beyond 2k+1.
    with pytest.raises(ValueError, match="j=3"):
        element_operators(mesh, 2, 3)


def test_zero_maps_to_zero():
    mesh = build_triangular(2)
    v = zero_weak(mesh, 2)
    for op in element_operators(mesh, 2, 4):
        assert np.allclose(op.apply(v), 0.0)


def test_local_dof_count():
    mesh = build_polygonal(2)
    k = 3
    op = one_cell_operator(mesh, 0, k, k + 4)
    n_edges = cell_stack(mesh, 0).edges.shape[1]
    assert op.matrix.shape == (1, dim_pk(k + 4), dim_pk(k) + 2 * k * n_edges)
    with pytest.raises(ValueError, match="local DOFs"):
        op.apply(zero_weak(mesh, k - 1))


def _poly_fields(k):
    if k == 2:
        u = lambda p: p[:, 0] ** 2 - p[:, 0] * p[:, 1] + 3 * p[:, 1]
        grad = lambda p: np.stack(
            [2 * p[:, 0] - p[:, 1], 3.0 - p[:, 0]], axis=-1
        )
        lap = lambda p: np.full(len(p), 2.0)
    else:
        u = lambda p: p[:, 0] ** 2 * p[:, 1] - 0.5 * p[:, 1] ** 3 + 3 * p[:, 0]
        grad = lambda p: np.stack(
            [2 * p[:, 0] * p[:, 1] + 3.0, p[:, 0] ** 2 - 1.5 * p[:, 1] ** 2],
            axis=-1,
        )
        lap = lambda p: -p[:, 1]
    return u, grad, lap


@pytest.mark.parametrize("k,j", [(2, 4), (3, 5)])
@pytest.mark.parametrize("builder,n", [(build_triangular, 2), (build_polygonal, 2)])
def test_polynomial_exactness(k, j, builder, n):
    # For v interpolated from a degree<=k polynomial, the lifted weak
    # Laplacian equals the (polynomial) Laplacian exactly on every cell.
    mesh = builder(n)
    u, grad_u, lap_u = _poly_fields(k)

    v = interpolate_qh(u, grad_u, mesh, k)
    for op in element_operators(mesh, k, j):
        lifted = op.apply(v)
        for c, cell in enumerate(op.stack.cells):
            pts = quad_cell(mesh.vertices[mesh.cells[cell]], 4).points
            got = psi_tables(op, pts, c)[0] @ lifted[c]
            assert np.allclose(got, lap_u(pts), atol=1e-9)


def test_constant_has_zero_weak_laplacian():
    mesh = build_triangular(2)
    k = 2
    v = interpolate_qh(
        lambda p: np.ones(len(p)),
        lambda p: np.zeros_like(p),
        mesh,
        k,
    )
    for op in element_operators(mesh, k, k + 2):
        coeff = op.apply(v)
        # the P_j basis is orthonormal, so these are the L2(T) norms
        assert np.linalg.norm(coeff, axis=1).max() < 1e-10


def test_single_vb_column_against_independent_quadrature():
    # A weak function that is 1 on one edge trace and zero elsewhere: the
    # weak Laplacian satisfies (Lw v, psi)_T = -<Qb(-v_b), grad psi.n>_e
    # = -<v_b, grad psi.n>_e.  Compare against a direct edge integral.
    mesh = build_triangular(2)
    k, j = 2, 4
    cell = 3
    stack = cell_stack(mesh, cell)
    e, sigma = stack.edges[0, 1], stack.sigma[0, 1]
    v = zero_weak(mesh, k)
    p0, p1 = mesh.vertices[mesh.edges[e]]
    # constant-1 trace in the orthonormal edge basis
    v.vb[e, 0] = 1.0 / edge_values(k - 1, p0, p1, np.array([0.0]))[0, 0]

    op = one_cell_operator(mesh, cell, k, j)
    coeff = op.apply(v)[0]

    # Whatever basis the coefficients are in, test against that basis with
    # edge and cell rules of our own.
    n_out = sigma * edge_normal(mesh)[e]
    erule = quad_edge(p0, p1, 2 * j)
    _, gx, gy = psi_tables(op, erule.points)
    rhs = -((gx * n_out[0] + gy * n_out[1]).T @ erule.weights)

    crule = quad_cell(mesh.vertices[mesh.cells[cell]], 2 * j)
    vj = psi_tables(op, crule.points)[0]
    mass = vj.T @ (crule.weights[:, None] * vj)
    assert np.allclose(mass @ coeff, rhs, atol=1e-12)


def test_flux_column_sign_tracks_sigma():
    # A pure v_n weak function contributes sigma * <v_n, psi>_e; the two
    # cells sharing an interior edge must see opposite signs.
    mesh = build_triangular(2)
    k, j = 2, 4
    interior = [e for e in range(mesh.n_edges) if not mesh.edge_boundary[e]]
    e = interior[0]
    ca, cb = mesh.edge_cells[e]
    v = zero_weak(mesh, k)
    v.vn[e, 0] = 1.0

    results = {}
    for cell in (ca, cb):
        op = one_cell_operator(mesh, cell, k, j)
        coeff = op.apply(v)[0]
        p0, p1 = mesh.vertices[mesh.edges[e]]
        erule = quad_edge(p0, p1, 2 * j)
        vj = erule.weights @ (
            edge_values(k - 1, p0, p1, erule.params)[:, :1] * psi_tables(op, erule.points)[0]
        )
        crule = quad_cell(mesh.vertices[mesh.cells[cell]], 2 * j)
        vq = psi_tables(op, crule.points)[0]
        mass = vq.T @ (crule.weights[:, None] * vq)
        sigma = sigma_of(mesh, cell, e)
        results[cell] = (mass @ coeff, sigma * vj)
    for coeffs, expected in results.values():
        assert np.allclose(coeffs, expected, atol=1e-12)
    sa = sigma_of(mesh, ca, e)
    sb = sigma_of(mesh, cb, e)
    assert sa == -sb


def test_linearity():
    mesh = build_triangular(2)
    op = one_cell_operator(mesh, 0, 2, 4)
    rng = np.random.default_rng(7)
    size = mesh.n_cells * dim_pk(2) + 2 * mesh.n_edges * 2
    a = rng.standard_normal(size)
    b = rng.standard_normal(size)

    def lw(x):
        return op.apply(WeakFunction.from_flat(2, mesh.n_cells, x))

    lhs = lw(2.0 * a - 3.0 * b)
    rhs = 2.0 * lw(a) - 3.0 * lw(b)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_interpolant_of_one():
    mesh = build_triangular(2)
    v = interpolate_qh(
        lambda p: np.ones(len(p)), lambda p: np.zeros_like(p), mesh, 2
    )
    assert np.allclose(v.v0[:, 0], 1.0)
    assert np.allclose(v.v0[:, 1:], 0.0, atol=1e-13)
    assert np.allclose(v.vn, 0.0, atol=1e-13)


def test_interpolation_error_rate():
    # ||u - v0||_L2 should shrink like h^{k+1}.
    k = 2

    def u(p):
        return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])

    def grad_u(p):
        return np.stack(
            [
                np.pi * np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
                np.pi * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
            ],
            axis=-1,
        )

    errs = []
    for n in (4, 8):
        mesh = build_triangular(n)
        v = interpolate_qh(u, grad_u, mesh, k)
        total = 0.0
        centroid, diameter = cell_frames(mesh)
        for cell in range(mesh.n_cells):
            rule = quad_cell(mesh.vertices[mesh.cells[cell]], 2 * k + 4)
            vals = legendre_values(rule.points, centroid[cell], diameter[cell], k)
            diff = u(rule.points) - vals @ v.v0[cell]
            total += float(rule.weights @ diff**2)
        errs.append(np.sqrt(total))
    rate = np.log2(errs[0] / errs[1])
    assert rate == pytest.approx(k + 1, abs=0.2)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("builder,extra", [(build_triangular, 2), (build_polygonal, 4)])
def test_shared_operator_matches_groups_of_one(builder, extra, k):
    # The same code with every cell its own shape builds each cell's
    # operator in its own frame; sharing may move only roundoff.
    mesh = builder(8)
    alone = dataclasses.replace(mesh, stacks=[
        dataclasses.replace(s, shape=np.arange(len(s.cells))) for s in mesh.stacks])
    for shared, own in zip(element_operators(mesh, k, k + extra),
                           element_operators(alone, k, k + extra)):
        assert len(shared.matrix) < len(own.matrix) == len(own.stack.cells)
        got = shared.matrix[shared.stack.shapes[1]]
        scale = np.abs(own.matrix).max(axis=(1, 2))
        assert (np.abs(got - own.matrix).max(axis=(1, 2)) <= 1e-12 * scale).all()


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("make,extra", [(lambda: build_triangular(4), 2),
                                        (lambda: build_polygonal(4), 4),
                                        (lambda: perturbed(build_polygonal(4), seed=3), 4)],
                         ids=["tri", "poly", "perturbed"])
def test_moments_match_a_finer_rule(make, extra, k):
    # f has degree j + 2, so the operator's rule is exact for f V_i and a
    # rule of higher degree, built on each cell alone, gives the same
    # moments, up to the roundoff of moving a shape's rule onto its cells.
    # The perturbed mesh has one shape per cell (test_mesh checks seed 3).
    mesh, j = make(), k + extra
    ea, eb = monomial_exponents(j + 2)
    coef = np.random.default_rng(k).standard_normal(len(ea))

    def f(p):
        return (p[:, :1] ** ea * p[:, 1:] ** eb) @ coef

    for op in element_operators(mesh, k, j):
        for m in (dim_pk(k), dim_pk(j)):
            got = op.moments(f, m)
            assert got.shape == (len(op.stack.cells), m)
            for c, cell in enumerate(op.stack.cells):
                rule = quad_cell(mesh.vertices[mesh.cells[cell]], 2 * j + 6)
                vals = legendre_values(rule.points, op.stack.centroid[c],
                                       op.stack.diameter[c], j)[:, :m]
                want = vals.T @ (rule.weights * f(rule.points))
                assert np.abs(got[c] - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("make,extra", [(lambda: build_triangular(4), 2),
                                        (lambda: build_polygonal(4), 4),
                                        (lambda: perturbed(build_polygonal(4), seed=3), 4)],
                         ids=["tri", "poly", "perturbed"])
def test_project_is_the_l2_projection_onto_pj(make, extra, k):
    # StackOperator.project is R^-T of the moments against the Legendre
    # products, bit for bit, and it reproduces a polynomial of degree j: its
    # coefficients in psi = V R^-1, expanded at the cell's rule points, give
    # the polynomial back.
    mesh, j = make(), k + extra
    ea, eb = monomial_exponents(j)
    coef = np.random.default_rng(k).standard_normal(len(ea))

    def p(x):
        return (x[:, :1] ** ea * x[:, 1:] ** eb) @ coef

    for op in element_operators(mesh, k, j):
        ref, of = op.stack.shapes
        got = op.project(p)
        want = from_legendre(op.r[of], op.moments(p, dim_pk(op.j))[..., None])[..., 0]
        assert np.array_equal(got, want)
        points = op.stack.polygons[:, :1] - ref.polygons[of, :1] + op.rule.points[of]
        vals = legendre_values(points, op.stack.centroid, op.stack.diameter, op.j)
        expanded = (vals @ np.linalg.solve(op.r[of], got[..., None]))[..., 0]
        exact = on_cells(p, op.stack, op.rule, slice(None))
        assert np.abs(expanded - exact).max() <= 1e-10 * np.abs(exact).max()


@pytest.mark.parametrize("kind", [
    lambda x: x > 0, lambda x: np.rint(100 * x).astype(np.int32), lambda x: x],
    ids=["bool", "int32", "float"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("mesh", [build_triangular(4), build_polygonal(4)], ids=["tri", "poly"])
def test_flat_of_repeats_values_over_their_blocks(mesh, k, kind):
    # WeakFunction.flat_of repeats a value per cell over the cell's v0 block
    # and a value per edge over the edge's v_b and v_n blocks, in the global
    # layout of flat; WeakFunction.local then reads the cell's value in every
    # v0 column and each local edge's value in its 2k columns.
    rng, dk = np.random.default_rng(k), dim_pk(k)
    cell, edge = kind(rng.standard_normal(mesh.n_cells)), kind(rng.standard_normal(mesh.n_edges))
    got = WeakFunction.flat_of(k, cell, edge)
    want = WeakFunction(k, v0=np.repeat(cell, dk).reshape(-1, dk),
                        vb=np.repeat(edge, k).reshape(-1, k),
                        vn=np.repeat(edge, k).reshape(-1, k)).flat()
    assert got.dtype == cell.dtype and np.array_equal(got, want)
    v = WeakFunction.from_flat(k, mesh.n_cells, got)
    for stack in mesh.stacks:
        nc, nv = stack.edges.shape
        loc = v.local(stack)
        assert np.array_equal(loc[:, :dk], np.repeat(cell[stack.cells, None], dk, axis=1))
        assert np.array_equal(loc[:, dk:].reshape(nc, nv, 2 * k),
                              np.repeat(edge[stack.edges][..., None], 2 * k, axis=2))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("make,extra", [(lambda: build_triangular(4), 2),
                                        (lambda: perturbed(build_polygonal(4), seed=3), 4)],
                         ids=["tri", "perturbed"])
def test_slices_of_a_stack_match_the_whole_stack(make, extra, k, monkeypatch):
    # WeakFunction.local and StackOperator.moments, project and apply on a
    # slice of a stack's cells give that slice of the whole stack's result,
    # bit for bit, also when the slice is taken in chunks of two cells.  The
    # last three take slices of step 1 only, and name any other slice.
    mesh = make()
    size = mesh.n_cells * dim_pk(k) + 2 * mesh.n_edges * k
    v = WeakFunction.from_flat(k, mesh.n_cells, np.random.default_rng(k).standard_normal(size))

    def f(p):
        return np.sin(3.0 * p[:, 0]) * np.exp(p[:, 1])

    for op in element_operators(mesh, k, k + extra):
        m, nc = dim_pk(op.j), len(op.stack.cells)
        whole_local, whole_moments, whole_apply = v.local(op.stack), op.moments(f, m), op.apply(v)
        whole_project = op.project(f)
        assert np.array_equal(whole_local, local(v, mesh, op))
        assert np.array_equal(whole_apply, per_cell(op.matrix, op.stack.shapes[1], whole_local))
        for s in [slice(0, 1), slice(1, nc - 1), slice(nc - 3, None), slice(2, 2)]:
            monkeypatch.setattr(weakop, "CHUNK", 2 * op.table[0].size)
            assert np.array_equal(v.local(op.stack, s), whole_local[s])
            assert np.array_equal(op.moments(f, m, s), whole_moments[s])
            monkeypatch.setattr(weakop, "CHUNK", 2 * op.r[0].size)
            assert np.array_equal(op.project(f, s), whole_project[s])
            monkeypatch.setattr(weakop, "CHUNK", 2 * op.matrix[0].size)
            assert np.array_equal(op.apply(v, s), whole_apply[s])
        monkeypatch.undo()
        for s in [slice(0, 10, 2), slice(None, None, -1)]:
            with pytest.raises(ValueError, match=re.escape(str(s))):
                op.moments(f, m, s)
            with pytest.raises(ValueError, match=re.escape(str(s))):
                op.project(f, s)
            with pytest.raises(ValueError, match=re.escape(str(s))):
                op.apply(v, s)


@pytest.mark.parametrize("make,own", [(lambda: build_triangular(4), False),
                                      (lambda: perturbed(build_polygonal(4), seed=3), True)],
                         ids=["tri", "perturbed"])
def test_cell_chunks_walk_a_slice_once_in_order(make, own, monkeypatch):
    # The one walk over a stack's cells: chunks of at most CHUNK // size
    # cells cover the slice once, in order, each with its cells' rows of the
    # per-shape arrays.  Where every cell is its own shape (the perturbed
    # mesh) those rows are the chunk's slice itself, so nothing is gathered.
    size = 5
    monkeypatch.setattr(weakop, "CHUNK", 3 * size + 2)
    for stack in make().stacks:
        ref, of = stack.shapes
        nc = len(stack.cells)
        assert (len(ref.cells) == nc) == own
        for cells in [slice(None), slice(1, nc - 1), slice(nc - 4, None), slice(2, 2),
                      slice(nc, nc + 3)]:
            span = range(nc)[cells]
            walk = list(weakop._cell_chunks(stack, size, cells))
            if len(span) == 0:
                assert walk == []
            assert [i for _, c, _ in walk for i in range(nc)[c]] == list(span)
            assert [i for s, _, _ in walk for i in range(len(span))[s]] == list(range(len(span)))
            for s, c, rows in walk:
                assert 1 <= len(range(nc)[c]) <= 3
                assert list(span[s]) == list(range(nc)[c])
                if own:
                    assert rows == c
                else:
                    assert np.array_equal(rows, of[c])
