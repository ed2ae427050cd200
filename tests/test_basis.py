import io

import numpy as np
import pytest

from numpy.polynomial import Legendre

from sfwg.basis import (
    dim_pk,
    edge_values,
    from_legendre,
    legendre_laplacian,
    legendre_table,
    legendre_values,
    monomial_exponents,
    orthonormal_factor,
)
from sfwg.mesh import build_triangular, load_mesh
from sfwg.quadrature import quad_cell, quad_edge
from sfwg.weakop import project_edge_data
from test_mesh import cell_frames, edge_normal
from test_weakop import interpolate_qh

TRI = np.array([[0.1, 0.2], [0.7, 0.15], [0.35, 0.9]])
PENTAGON = np.array([[0.0, 0.0], [0.6, -0.1], [0.9, 0.4], [0.5, 0.8], [-0.1, 0.5]])


def diameter(polygon):
    return max(np.hypot(*(p - q)) for p in polygon for q in polygon)


def tri_values(pts, degree):
    """The Legendre products of ``degree`` on TRI at ``pts``."""
    return legendre_values(pts, TRI.mean(axis=0), diameter(TRI), degree)


def laplacians(pts, centroid, diam, degree):
    """Laplacians of the Legendre products, as the error functionals form them."""
    h = 0.5 * np.asarray(diam)[..., None, None]
    return legendre_values(pts, centroid, diam, degree) @ legendre_laplacian(degree) / h**2


def weighted(rule, vals):
    """A value table at a rule's points, scaled by the square roots of its weights."""
    return np.sqrt(rule.weights)[..., None] * vals


def orthonormal_values(pts, degree, polygon=TRI):
    """Values of the orthonormal basis psi = V R^-1 of the weak Laplacian,
    with R from a degree-2m rule on ``polygon``."""
    centroid, diam = polygon.mean(axis=0), diameter(polygon)
    rule = quad_cell(polygon, 2 * degree)
    r, ok = orthonormal_factor(weighted(rule, legendre_values(rule.points, centroid, diam, degree)))
    assert ok
    return from_legendre(r, legendre_values(pts, centroid, diam, degree).T).T


def test_monomial_exponents_graded_lex():
    ax, ay = monomial_exponents(2)
    assert ax.tolist() == [0, 1, 0, 2, 1, 0]
    assert ay.tolist() == [0, 0, 1, 0, 1, 2]
    assert len(monomial_exponents(5)[0]) == 21


def test_dim_pk():
    assert [dim_pk(m) for m in range(5)] == [1, 3, 6, 10, 15]
    assert tri_values(TRI, 3).shape == (3, 10)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    pts = TRI.mean(axis=0) + 0.1 * rng.standard_normal((20, 2))
    g = np.stack(legendre_table(pts, TRI.mean(axis=0), diameter(TRI), 4)[1:], axis=-1)
    eps = 1e-6
    for axis in range(2):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, axis] += eps
        dm[:, axis] -= eps
        fd = (tri_values(dp, 4) - tri_values(dm, 4)) / (2 * eps)
        assert np.allclose(g[:, :, axis], fd, atol=1e-6)


def test_laplacians_match_finite_differences():
    rng = np.random.default_rng(1)
    pts = TRI.mean(axis=0) + 0.1 * rng.standard_normal((10, 2))
    v = tri_values(pts, 4)
    lap_fd = -4.0 * v
    eps = 1e-4
    for dx, dy in [(eps, 0), (-eps, 0), (0, eps), (0, -eps)]:
        lap_fd = lap_fd + tri_values(pts + [dx, dy], 4)
    lap_fd /= eps**2
    assert np.allclose(laplacians(pts, TRI.mean(axis=0), diameter(TRI), 4), lap_fd, atol=1e-5)


def test_first_basis_is_constant_one():
    pts = np.array([[0.3, 0.4], [0.5, 0.5]])
    vals, gx, gy = legendre_table(pts, TRI.mean(axis=0), diameter(TRI), 2)
    assert np.allclose(vals[:, 0], 1.0)
    assert np.allclose(gx[:, 0], 0.0) and np.allclose(gy[:, 0], 0.0)


def cell_gram(polygon, centroid, diam, degree):
    rule = quad_cell(polygon, 2 * degree)
    v = legendre_values(rule.points, centroid, diam, degree)
    return v.T @ (rule.weights[:, None] * v)


def test_p0_mass_matrix_is_area():
    m = cell_gram(TRI, TRI.mean(axis=0), diameter(TRI), 0)
    area = quad_cell(TRI, 0).weights.sum()
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(area, rel=1e-14)


def test_cell_mass_condition_stable_under_refinement():
    # The diameter scaling should keep conditioning flat as h shrinks.
    conds = []
    for n in (4, 8, 16):
        mesh = build_triangular(n)
        poly = mesh.vertices[mesh.cells[0]]
        centroid, diameter = cell_frames(mesh)
        conds.append(np.linalg.cond(cell_gram(poly, centroid[0], diameter[0], 4)))
    assert max(conds) < 1e6
    assert max(conds) / min(conds) < 1.1


def one_cell_mesh(polygon):
    text = (f"polymesh 1\nvertices {len(polygon)}\n"
            + "".join(f"{float(x)!r} {float(y)!r}\n" for x, y in polygon)
            + "cells 1\n" + " ".join(map(str, range(len(polygon)))) + "\n")
    return load_mesh(io.StringIO(text))


def no_grad(p):
    return np.zeros_like(p)


def projection(f, mesh, k):
    """The P_k projection of ``f`` on a one-cell mesh, as interpolate_qh
    forms v0, and the function that evaluates it."""
    c = interpolate_qh(f, no_grad, mesh, k).v0[0]
    (s,) = mesh.stacks
    return c, lambda p: legendre_values(p, s.centroid[0], s.diameter[0], k) @ c


def test_projection_reproduces_polynomials():
    def f(p):
        return 1.0 + 2 * p[:, 0] - p[:, 1] + 0.5 * p[:, 0] ** 2 * p[:, 1]

    _, pf = projection(f, one_cell_mesh(TRI), 3)
    pts = np.array([[0.3, 0.3], [0.4, 0.5], [0.35, 0.45]])
    assert np.allclose(pf(pts), f(pts), atol=1e-12)


def test_projection_orthogonality_and_idempotence():
    k = 2
    mesh = one_cell_mesh(TRI)

    def f(p):
        return np.sin(3 * p[:, 0]) * np.cos(2 * p[:, 1])

    c, pf = projection(f, mesh, k)
    # (f - Pf, q) = 0 for every q in the space, under the projection's
    # rule, which is exact for the products of two P_k functions.
    rule = quad_cell(TRI, 2 * k + 2)
    (s,) = mesh.stacks
    v = legendre_values(rule.points, s.centroid[0], s.diameter[0], k)
    resid = f(rule.points) - pf(rule.points)
    assert np.allclose(v.T @ (rule.weights * resid), 0.0, atol=1e-13)
    c2, _ = projection(pf, mesh, k)
    assert np.allclose(c2, c, atol=1e-13)


def edge_of(mesh, a, b):
    """Index and (lo, hi) endpoints of the mesh edge between vertices a and b."""
    e = int(np.flatnonzero((mesh.edges == sorted((a, b))).all(axis=1))[0])
    return e, *mesh.vertices[mesh.edges[e]]


def test_edge_basis_orthonormal():
    p0, p1 = np.array([0.2, 0.1]), np.array([0.9, 0.6])
    rule = quad_edge(p0, p1, 8)
    v = edge_values(4, p0, p1, rule.params)
    assert np.allclose(v.T @ (rule.weights[:, None] * v), np.eye(5), atol=1e-13)


def test_edge_projection_reproduces_polynomials():
    # v_b and v_n of k = 4 live in P_3(e), which holds the trace of a cubic
    # and its normal derivative.
    k = 4
    mesh = one_cell_mesh(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
    e, p0, p1 = edge_of(mesh, 1, 2)

    def g(p):
        return 2.0 - p[:, 0] + p[:, 0] ** 2 * 0.25 + p[:, 1] ** 3

    def grad_g(p):
        return np.stack([-1.0 + 0.5 * p[:, 0], 3.0 * p[:, 1] ** 2], axis=1)

    vb, vn = project_edge_data(mesh, [e], k, g, grad_g)
    length = np.hypot(*(p1 - p0))
    s = np.linspace(0.0, length, 9)
    pts = p0 + np.outer(s / length, p1 - p0)
    chi = edge_values(k - 1, p0, p1, s)
    assert np.allclose(chi @ vb[0], g(pts), atol=1e-12)
    assert np.allclose(chi @ vn[0], grad_g(pts) @ edge_normal(mesh)[e], atol=1e-12)


def test_edge_projection_orthogonality():
    # (g - Qb g, chi)_e = 0 for every chi in P_{k-1}(e), under the
    # projection's rule, which is exact for the products of two P_k
    # functions; and Qb reproduces its own output.
    k = 3
    mesh = one_cell_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
    e, p0, p1 = edge_of(mesh, 0, 2)

    def g(p):
        return np.exp(p[:, 0])

    def grad_g(p):
        return np.stack([np.exp(p[:, 0]), np.sin(p[:, 1])], axis=1)

    vb, vn = project_edge_data(mesh, [e], k, g, grad_g)
    rule = quad_edge(p0, p1, 2 * k)
    v = edge_values(k - 1, p0, p1, rule.params)
    for target, c in ((g(rule.points), vb[0]),
                      (grad_g(rule.points) @ edge_normal(mesh)[e], vn[0])):
        resid = target - v @ c
        assert np.allclose(v.T @ (rule.weights * resid), 0.0, atol=1e-13)

    def qb_g(p):
        t = np.hypot(*(p - p0).T)
        return edge_values(k - 1, p0, p1, t) @ vb[0]

    again, _ = project_edge_data(mesh, [e], k, qb_g)
    assert np.allclose(again, vb, atol=1e-13)


def test_legendre_table_matches_numpy_legendre():
    degree = 5
    centroid, diam = TRI.mean(axis=0), diameter(TRI)
    rng = np.random.default_rng(2)
    pts = centroid + 0.2 * rng.standard_normal((7, 2))
    vals, gx, gy = legendre_table(pts, centroid, diam, degree)
    lap = laplacians(pts, centroid, diam, degree)
    assert np.array_equal(legendre_values(pts, centroid, diam, degree), vals)
    h = 0.5 * diam
    x, y = ((pts - centroid) / h).T
    for i, (a, b) in enumerate(zip(*monomial_exponents(degree))):
        pa, pb = Legendre.basis(a), Legendre.basis(b)
        assert np.allclose(vals[:, i], pa(x) * pb(y), atol=1e-13)
        assert np.allclose(gx[:, i], pa.deriv()(x) * pb(y) / h, atol=1e-11)
        assert np.allclose(gy[:, i], pa(x) * pb.deriv()(y) / h, atol=1e-11)
        expected = (pa.deriv(2)(x) * pb(y) + pa(x) * pb.deriv(2)(y)) / h**2
        assert np.allclose(lap[:, i], expected, atol=1e-9)


@pytest.mark.parametrize("stacked", [False, True], ids=["cell", "stack"])
@pytest.mark.parametrize("k,j", [(2, 4), (3, 7)])
def test_pk_basis_leads_pj_products(k, j, stacked):
    # _stack_operator slices the P_k tables of v0 out of its P_j tables and
    # maps the P_k Laplacians with the leading columns of R.
    if stacked:
        polys = np.stack([TRI, PENTAGON[:3] * 2.0 - 1.0])
        centroids = polys.mean(axis=1)
        diams = np.array([diameter(p) for p in polys])
        pts = centroids[:, None, :] + np.array([[0.01, 0.02], [-0.03, 0.05], [0.0, -0.02]])
    else:
        centroids, diams = TRI.mean(axis=0), diameter(TRI)
        pts = centroids + np.array([[0.01, 0.02], [-0.03, 0.05], [0.0, -0.02]])
    dk = dim_pk(k)
    for got, want in zip(legendre_table(pts, centroids, diams, k),
                         legendre_table(pts, centroids, diams, j)):
        assert np.array_equal(got, want[..., :dk])
    assert np.array_equal(legendre_values(pts, centroids, diams, k),
                          legendre_values(pts, centroids, diams, j)[..., :dk])
    lap_j = laplacians(pts, centroids, diams, j)[..., :dk]
    lap_k = laplacians(pts, centroids, diams, k)
    assert np.abs(lap_k).max() > 1.0
    assert np.allclose(lap_k, lap_j, rtol=1e-14, atol=1e-14 * np.abs(lap_k).max())
    assert np.array_equal(legendre_laplacian(j)[:dk, :dk], legendre_laplacian(k))
    assert not legendre_laplacian(j)[dk:, :dk].any()


@pytest.mark.parametrize("polygon", [TRI, PENTAGON], ids=["triangle", "pentagon"])
def test_orthonormal_basis_gram_is_identity(polygon):
    # The factor comes from a degree-2m rule; integrate with a finer,
    # independent one.
    rule = quad_cell(polygon, 16)
    v = orthonormal_values(rule.points, 5, polygon)
    assert np.allclose(v.T @ (rule.weights[:, None] * v), np.eye(dim_pk(5)), atol=1e-10)


def test_orthonormal_basis_spans_pk():
    # Every Legendre product of degree <= m is reproduced by the basis.
    rule = quad_cell(TRI, 12)
    v = orthonormal_values(rule.points, 4)
    target = tri_values(rule.points, 4)
    coeffs = v.T @ (rule.weights[:, None] * target)
    assert np.allclose(v @ coeffs, target, atol=1e-11)


def test_orthonormal_basis_stack_matches_single_cells():
    # A stack of factors R maps a stack of tables cell by cell, as one
    # cell's factor maps its own table.
    polys = np.stack([TRI, TRI[::-1] * 0.5 + 0.3])
    centroids = polys.mean(axis=1)
    diams = np.array([diameter(p) for p in polys])
    rule = quad_cell(polys, 6)
    r, ok = orthonormal_factor(weighted(rule, legendre_values(rule.points, centroids, diams, 3)))
    assert ok.all()
    pts = centroids[:, None, :] + np.array([[0.01, 0.02], [-0.03, 0.05], [0.0, -0.02]])
    tables = legendre_table(pts, centroids, diams, 3)
    for i in range(2):
        r_i, _ = orthonormal_factor(np.sqrt(rule.weights[i])[:, None]
                                    * legendre_values(rule.points[i], centroids[i], diams[i], 3))
        single = legendre_table(pts[i], centroids[i], diams[i], 3)
        for got, want in zip(tables, single):
            got = from_legendre(r, got.swapaxes(-1, -2)).swapaxes(-1, -2)[i]
            want = from_legendre(r_i, want.T).T
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
