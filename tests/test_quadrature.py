import math

import numpy as np
import pytest

from sfwg.basis import legendre_laplacian, monomial_exponents
from sfwg.mesh import build_polygonal
from sfwg.quadrature import (
    QuadratureDegreeError,
    polygon_area,
    quad_cell,
    quad_edge,
    reference_edge_rule,
    reference_triangle_rule,
)
from test_mesh import perturbed

UNIT_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
HEXAGON = np.array(
    [[0.5, -0.5], [1.0, 0.0], [1.0, 1.0], [0.5, 1.5], [0.0, 1.0], [0.0, 0.0]]
)


def exact_ref_triangle(a, b):
    # int x^a y^b over the unit triangle = a! b! / (a+b+2)!
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("n", range(1, 27))
def test_gauss_jacobi_exactness(n):
    # The xi direction of the collapsed rule integrates against the Jacobi
    # weight 1 - xi: int_T x^m = int_0^1 (1 - x) x^m dx = 1/((m+1)(m+2)).
    # At degree 2n - 2 the rule has n nodes in xi and is exact for m <= 2n - 2;
    # the error is measured against sum w |x^m|, the size of the terms summed.
    pts, w = reference_triangle_rule(2 * n - 2)
    x = pts[:, 0]
    assert len(np.unique(x)) == n
    assert (w > 0).all()
    for m in range(2 * n - 1):
        exact = 1.0 / ((m + 1) * (m + 2))
        assert abs(w @ x**m - exact) <= 1e-13 * (w @ np.abs(x**m))


@pytest.mark.parametrize("cached", [
    lambda: reference_triangle_rule(4)[0],
    lambda: reference_triangle_rule(4)[1],
    lambda: reference_edge_rule(3)[0],
    lambda: reference_edge_rule(3)[1],
    lambda: legendre_laplacian(3),
    lambda: monomial_exponents(3)[0],
    lambda: monomial_exponents(3)[1],
], ids=["triangle-points", "triangle-weights", "edge-points", "edge-weights",
        "legendre-laplacian", "exponents-x", "exponents-y"])
def test_cached_arrays_are_read_only(cached):
    # A cache hands one array to every caller; writing to it must fail
    # rather than change what later calls return.
    with pytest.raises(ValueError, match="read-only"):
        cached()[...] *= 2


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 10, 16, 30, 40, 49, 50])
def test_reference_rule_exactness(degree):
    pts, w = reference_triangle_rule(degree)
    # n Gauss-Legendre points per collapsed direction; at even degree
    # n = degree/2 + 1, which sets the cost of every cell rule.
    n = (degree + 3) // 2
    assert pts.shape == (n * n, 2) and w.shape == (n * n,)
    assert (w > 0).all()
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = float(w @ (pts[:, 0] ** a * pts[:, 1] ** b))
            assert got == pytest.approx(exact_ref_triangle(a, b), rel=1e-12)


def test_constant_integrates_to_area():
    tri = np.array([[0.2, 0.1], [0.9, 0.3], [0.4, 0.8]])
    rule = quad_cell(tri, 3)
    assert rule.weights.sum() == pytest.approx(abs(polygon_area(tri)), rel=1e-14)


def test_x2y3_on_reference_triangle():
    rule = quad_cell(UNIT_TRI, 5)
    got = float(rule.weights @ (rule.points[:, 0] ** 2 * rule.points[:, 1] ** 3))
    assert got == pytest.approx(exact_ref_triangle(2, 3), rel=1e-13)


def test_hexagon_area_matches_shoelace():
    rule = quad_cell(HEXAGON, 4)
    assert rule.weights.sum() == pytest.approx(polygon_area(HEXAGON), rel=1e-13)
    assert (rule.weights > 0).all()


def monomial_integral(polygon, a, b):
    """int x^a y^b over a CCW polygon (nv, 2) by the divergence theorem, as
    the boundary integral of x^(a+1) y^b / (a+1) dy, one Gauss rule per edge."""
    p0, p1 = polygon, np.roll(polygon, -1, axis=0)
    rule = quad_edge(p0, p1, a + b + 1)
    d = p1 - p0
    dy_ds = d[:, 1] / np.hypot(d[:, 0], d[:, 1])
    x, y = rule.points[..., 0], rule.points[..., 1]
    return float(np.sum(rule.weights * dy_ds[:, None] * x ** (a + 1) * y**b)) / (a + 1)


def test_polygon_rule_exactness():
    # A quad, a pentagon and a hexagon of the honeycomb, and an interior
    # hexagon of a perturbed honeycomb.
    cells = [s.polygons[0] for s in build_polygonal(4).stacks]
    cells.append(perturbed(build_polygonal(4), seed=3).stacks[2].polygons[0])
    for polygon in cells:
        nv = len(polygon)
        # A stack of the polygon started at each of its vertices: every fan.
        rule = quad_cell(np.stack([np.roll(polygon, -s, axis=0) for s in range(nv)]), 6)
        assert rule.weights.shape == (nv, (nv - 2) * len(reference_triangle_rule(6)[1]))
        for a in range(7):
            for b in range(7 - a):
                got = np.sum(rule.weights * rule.points[..., 0] ** a * rule.points[..., 1] ** b,
                             axis=-1)
                np.testing.assert_allclose(got, monomial_integral(polygon, a, b), rtol=1e-12)


def test_edge_rule_length():
    rule = quad_edge([0.0, 0.0], [3.0, 4.0], 1)
    assert rule.weights.sum() == pytest.approx(5.0, rel=1e-14)


@pytest.mark.parametrize("d", range(9))
def test_edge_rule_monomials(d):
    rule = quad_edge([0.0, 0.0], [1.0, 0.0], d)
    got = float(rule.weights @ rule.points[:, 0] ** d)
    assert got == pytest.approx(1.0 / (d + 1), rel=1e-13)


def test_edge_five_point_rule_degree_eight():
    rule = quad_edge([0.0, 0.0], [1.0, 0.0], 8)
    assert len(rule.weights) == 5
    got = float(rule.weights @ rule.params**8)
    assert got == pytest.approx(1.0 / 9.0, rel=1e-13)


def test_degree_cap_error_names_max():
    with pytest.raises(QuadratureDegreeError, match="50"):
        quad_cell(UNIT_TRI, 51)
    with pytest.raises(QuadratureDegreeError):
        quad_edge([0, 0], [1, 0], 99)
