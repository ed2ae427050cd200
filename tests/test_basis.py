import numpy as np
import pytest

from numpy.polynomial import Legendre

from sfwg.basis import (
    CellBasis,
    EdgeBasis,
    OrthonormalCellBasis,
    dim_pk,
    legendre_table,
    legendre_values,
    monomial_exponents,
    orthonormal_factor,
    project_cell,
    project_edge,
)
from sfwg.mesh import build_triangular
from sfwg.quadrature import quad_cell, quad_edge

TRI = np.array([[0.1, 0.2], [0.7, 0.15], [0.35, 0.9]])


def tri_basis(degree):
    rule = quad_cell(TRI, 1)
    centroid = TRI.mean(axis=0)
    diam = max(np.hypot(*(TRI[i] - TRI[j])) for i in range(3) for j in range(i))
    return CellBasis(degree, centroid, diam)


PENTAGON = np.array([[0.0, 0.0], [0.6, -0.1], [0.9, 0.4], [0.5, 0.8], [-0.1, 0.5]])


def diameter(polygon):
    return max(np.hypot(*(p - q)) for p in polygon for q in polygon)


def orthonormal_basis(degree, polygon=TRI):
    centroid = polygon.mean(axis=0)
    diam = diameter(polygon)
    rule = quad_cell(polygon, 2 * degree)
    r, ok = orthonormal_factor(legendre_values(rule.points, centroid, diam, degree), rule.weights)
    assert ok
    return OrthonormalCellBasis(degree, centroid, diam, r)


def test_dim_pk():
    assert [dim_pk(m) for m in range(5)] == [1, 3, 6, 10, 15]
    assert tri_basis(3).dim == 10


def test_gradients_match_finite_differences():
    basis = tri_basis(4)
    rng = np.random.default_rng(0)
    pts = TRI.mean(axis=0) + 0.1 * rng.standard_normal((20, 2))
    g = basis.gradients(pts)
    eps = 1e-6
    for axis in range(2):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, axis] += eps
        dm[:, axis] -= eps
        fd = (basis.values(dp) - basis.values(dm)) / (2 * eps)
        assert np.allclose(g[:, :, axis], fd, atol=1e-6)


def test_laplacians_match_finite_differences():
    basis = tri_basis(4)
    rng = np.random.default_rng(1)
    pts = TRI.mean(axis=0) + 0.1 * rng.standard_normal((10, 2))
    v = basis.values(pts)
    lap_fd = -4.0 * v
    eps = 1e-4
    for dx, dy in [(eps, 0), (-eps, 0), (0, eps), (0, -eps)]:
        lap_fd = lap_fd + basis.values(pts + [dx, dy])
    lap_fd /= eps**2
    assert np.allclose(basis.laplacians(pts), lap_fd, atol=1e-5)


def test_first_basis_is_constant_one():
    basis = tri_basis(2)
    pts = np.array([[0.3, 0.4], [0.5, 0.5]])
    assert np.allclose(basis.values(pts)[:, 0], 1.0)
    assert np.allclose(basis.gradients(pts)[:, 0, :], 0.0)


def cell_gram(polygon, basis):
    rule = quad_cell(polygon, 2 * basis.degree)
    v = basis.values(rule.points)
    return v.T @ (rule.weights[:, None] * v)


def test_p0_mass_matrix_is_area():
    basis = tri_basis(0)
    m = cell_gram(TRI, basis)
    area = quad_cell(TRI, 0).weights.sum()
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(area, rel=1e-14)


def test_cell_mass_condition_stable_under_refinement():
    # The diameter scaling should keep conditioning flat as h shrinks.
    conds = []
    for n in (4, 8, 16):
        mesh = build_triangular(n)
        basis = CellBasis(4, mesh.cell_centroid[0], mesh.cell_diameter[0])
        poly = mesh.vertices[mesh.cells[0]]
        conds.append(np.linalg.cond(cell_gram(poly, basis)))
    assert max(conds) < 1e9
    assert max(conds) / min(conds) < 1.1


def test_projection_reproduces_polynomials():
    basis = tri_basis(3)

    def f(p):
        return 1.0 + 2 * p[:, 0] - p[:, 1] + 0.5 * p[:, 0] ** 2 * p[:, 1]

    c = project_cell(f, TRI, basis)
    pts = np.array([[0.3, 0.3], [0.4, 0.5], [0.35, 0.45]])
    assert np.allclose(basis.values(pts) @ c, f(pts), atol=1e-12)


def test_projection_orthogonality_and_idempotence():
    basis = tri_basis(2)

    def f(p):
        return np.sin(3 * p[:, 0]) * np.cos(2 * p[:, 1])

    rule = quad_cell(TRI, 20)
    c = project_cell(f, TRI, basis, rule=rule)
    v = basis.values(rule.points)
    resid = f(rule.points) - v @ c
    # (f - Pf, q) = 0 for every q in the space.
    assert np.allclose(v.T @ (rule.weights * resid), 0.0, atol=1e-13)
    c2 = project_cell(lambda p: basis.values(p) @ c, TRI, basis)
    assert np.allclose(c2, c, atol=1e-13)


def test_edge_basis_orthonormal():
    eb = EdgeBasis(4, [0.2, 0.1], [0.9, 0.6])
    rule = quad_edge(eb.p0, eb.p1, 2 * eb.degree)
    v = eb.values(rule.params)
    assert np.allclose(v.T @ (rule.weights[:, None] * v), np.eye(5), atol=1e-13)


def test_edge_projection_reproduces_polynomials():
    p0, p1 = np.array([0.0, 1.0]), np.array([2.0, 0.0])
    eb = EdgeBasis(3, p0, p1)

    def g(p):
        return 2.0 - p[:, 0] + p[:, 0] ** 2 * 0.25 + p[:, 1] ** 3

    c = project_edge(g, eb)
    s = np.linspace(0.0, eb.length, 9)
    pts = p0 + np.outer(s / eb.length, p1 - p0)
    assert np.allclose(eb.values(s) @ c, g(pts), atol=1e-12)


def test_edge_projection_orthogonality():
    eb = EdgeBasis(2, [0.0, 0.0], [1.0, 1.0])

    def g(p):
        return np.exp(p[:, 0])

    from sfwg.quadrature import quad_edge

    rule = quad_edge(eb.p0, eb.p1, 30)
    c = project_edge(g, eb, rule=rule)
    v = eb.values(rule.params)
    resid = g(rule.points) - v @ c
    assert np.allclose(v.T @ (rule.weights * resid), 0.0, atol=1e-12)


def test_legendre_table_matches_numpy_legendre():
    degree = 5
    centroid, diam = TRI.mean(axis=0), diameter(TRI)
    rng = np.random.default_rng(2)
    pts = centroid + 0.2 * rng.standard_normal((7, 2))
    vals, gx, gy, lap = legendre_table(pts, centroid, diam, degree)
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


@pytest.mark.parametrize("polygon", [TRI, PENTAGON], ids=["triangle", "pentagon"])
def test_orthonormal_basis_gram_is_identity(polygon):
    # The factor comes from a degree-2m rule; integrate with a finer,
    # independent one.
    basis = orthonormal_basis(5, polygon)
    rule = quad_cell(polygon, 16)
    v = basis.values(rule.points)
    assert np.allclose(v.T @ (rule.weights[:, None] * v), np.eye(basis.dim), atol=1e-10)


def test_orthonormal_basis_spans_pk():
    # Every scaled monomial of degree <= m is reproduced by the basis.
    basis = orthonormal_basis(4)
    mono = tri_basis(4)
    rule = quad_cell(TRI, 12)
    v = basis.values(rule.points)
    target = mono.values(rule.points)
    coeffs = v.T @ (rule.weights[:, None] * target)
    assert np.allclose(v @ coeffs, target, atol=1e-11)


def test_orthonormal_gradients_match_finite_differences():
    basis = orthonormal_basis(5)
    rng = np.random.default_rng(3)
    pts = TRI.mean(axis=0) + 0.1 * rng.standard_normal((20, 2))
    g = basis.gradients(pts)
    eps = 1e-6
    for axis in range(2):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, axis] += eps
        dm[:, axis] -= eps
        fd = (basis.values(dp) - basis.values(dm)) / (2 * eps)
        assert np.allclose(g[:, :, axis], fd, rtol=1e-6, atol=1e-6 * np.abs(g).max())


def test_orthonormal_laplacians_match_finite_differences():
    basis = orthonormal_basis(5)
    rng = np.random.default_rng(4)
    pts = TRI.mean(axis=0) + 0.1 * rng.standard_normal((10, 2))
    lap_fd = -4.0 * basis.values(pts)
    eps = 1e-4
    for dx, dy in [(eps, 0), (-eps, 0), (0, eps), (0, -eps)]:
        lap_fd = lap_fd + basis.values(pts + [dx, dy])
    lap_fd /= eps**2
    lap = basis.laplacians(pts)
    assert np.abs(lap).max() > 1.0
    assert np.allclose(lap, lap_fd, rtol=1e-4, atol=1e-5 * np.abs(lap).max())


def test_orthonormal_basis_stack_matches_single_cells():
    polys = np.stack([TRI, TRI[::-1] * 0.5 + 0.3])
    centroids = polys.mean(axis=1)
    diams = np.array([diameter(p) for p in polys])
    rule = quad_cell(polys, 6)
    r, ok = orthonormal_factor(legendre_values(rule.points, centroids, diams, 3), rule.weights)
    assert ok.all()
    stack = OrthonormalCellBasis(3, centroids, diams, r)
    pts = centroids[:, None, :] + np.array([[0.01, 0.02], [-0.03, 0.05], [0.0, -0.02]])
    tables = stack.tables(pts)
    for i in range(2):
        single = OrthonormalCellBasis(3, centroids[i], diams[i], r[i]).tables(pts[i])
        for got, want in zip(tables, single):
            assert np.allclose(got[i], want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
