"""Quadrature rules on triangles, convex polygons, and edges.

Triangle rules are collapsed Gauss products (Duffy transform with a
Gauss-Jacobi rule absorbing the Jacobian), which gives positive weights and
exactness for any requested polynomial degree up to the cap.  A convex
polygon is integrated by fanning triangles from its first vertex.

The Gauss-Jacobi nodes (weight 1 - x on [-1, 1]) start as the eigenvalues
of the symmetric Jacobi matrix of the recurrence (Golub and Welsch, Math.
Comp. 23 (1969) 221-230) and take two Newton steps on P_n^(1,0), evaluated
with its derivative by the three-term recurrence.  The weights are the
Christoffel numbers of the Jacobi polynomials (Szego, Orthogonal
Polynomials, chapter 15), 2^(a+b+1) G(n+a+1) G(n+b+1) / (G(n+a+b+1) n!
(1 - x^2) P_n'(x)^2) with G the gamma function, which at a = 1, b = 0 is
4 / ((1 - x^2) P_n^(1,0)'(x)^2).  Every rule is computed in numpy alone.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

MAX_DEGREE = 50


class QuadratureDegreeError(ValueError):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    """Points (npts, 2) and non-negative weights (npts,).

    For edge rules ``params`` holds the arclength of each point measured
    from the first endpoint.
    """

    points: np.ndarray
    weights: np.ndarray
    params: np.ndarray | None = None


def _check_degree(d):
    if d > MAX_DEGREE:
        raise QuadratureDegreeError(
            f"quadrature degree {d} not implemented (max supported: {MAX_DEGREE})"
        )


def _jacobi10(n, x):
    """P_n^(1,0)(x) and its derivative, n >= 1, by the three-term recurrence
    (m+1)(2m-1) P_m = ((2m+1)(2m-1) x + 1) P_{m-1} - (m-1)(2m+1) P_{m-2}
    and the recurrence differentiated."""
    p0, p = np.ones_like(x), 0.5 * (3.0 * x + 1.0)
    d0, d = np.zeros_like(x), np.full_like(x, 1.5)
    for m in range(2, n + 1):
        a = (2 * m + 1) * (2 * m - 1)
        s = a * x + 1.0
        c, e = (m + 1) * (2 * m - 1), (m - 1) * (2 * m + 1)
        p0, p, d0, d = p, (s * p - e * p0) / c, d, (a * p + s * d - e * d0) / c
    return p, d


def gauss_jacobi10(n):
    """``n``-point Gauss rule for the weight 1 - x on [-1, 1]: ascending
    nodes and weights, exact for polynomials of degree <= 2n - 1."""
    # The Jacobi matrix: the recurrence of the orthonormal P_i^(1,0).
    i = np.arange(n)
    diag = -1.0 / ((2 * i + 1) * (2 * i + 3))
    m = i[1:]
    off = np.sqrt(m * (m + 1.0)) / (2 * m + 1)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    for _ in range(2):
        p, d = _jacobi10(n, x)
        x -= p / d
    d = _jacobi10(n, x)[1]
    return x, 4.0 / ((1.0 - x * x) * d * d)


@functools.lru_cache(maxsize=None)
def reference_triangle_rule(degree):
    """Rule on the unit triangle {x,y >= 0, x+y <= 1}, exact to ``degree``."""
    _check_degree(max(degree, 0))
    npt = degree // 2 + 1
    # xi direction: Gauss-Jacobi with weight (1-x) on [-1,1] absorbs the
    # Duffy Jacobian; eta direction: plain Gauss-Legendre.
    xj, wj = gauss_jacobi10(npt)
    xi = 0.5 * (xj + 1.0)
    wxi = 0.25 * wj
    tl, wl = leggauss(npt)
    eta = 0.5 * (tl + 1.0)
    weta = 0.5 * wl

    X = np.repeat(xi, npt)
    E = np.tile(eta, npt)
    pts = np.column_stack([X, E * (1.0 - X)])
    w = np.repeat(wxi, npt) * np.tile(weta, npt)
    pts.setflags(write=False)
    w.setflags(write=False)
    return pts, w


def quad_cell(polygon, degree):
    """Quadrature over a convex polygon, exact to ``degree``.

    The reference rule is mapped onto each triangle (v_0, v_i, v_i+1),
    i = 1 .. nv-2, of the fan from the first vertex (one of zero area, whose
    points weigh 0, next to a straight vertex).  ``polygon`` is (nv, 2), or
    a stack (..., nv, 2) of polygons with equal vertex counts, for which
    points are (..., npts, 2) and weights (..., npts).
    """
    polygon = np.asarray(polygon, dtype=float)
    rp, rw = reference_triangle_rule(degree)
    v0 = polygon[..., :1, None, :]
    e1 = polygon[..., 1:-1, None, :] - v0
    e2 = polygon[..., 2:, None, :] - v0
    pts = v0 + rp[:, 0, None] * e1 + rp[:, 1, None] * e2
    w = rw * abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    lead = polygon.shape[:-2]
    return QuadratureRule(pts.reshape(lead + (-1, 2)), w.reshape(lead + (-1,)))


@functools.lru_cache(maxsize=None)
def reference_edge_rule(npt):
    """``npt``-point Gauss-Legendre nodes on [0, 1] and half-weights."""
    t, w = leggauss(npt)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def quad_edge(p0, p1, degree):
    """Gauss rule on the segment p0->p1, exact to ``degree``.

    Endpoints may be stacks (..., 2); points are then (..., npts, 2), and
    weights and params (..., npts).
    """
    _check_degree(degree)
    t, w = reference_edge_rule(max(1, -(-(degree + 1) // 2)))
    p0 = np.asarray(p0, dtype=float)[..., None, :]
    d = np.asarray(p1, dtype=float)[..., None, :] - p0
    length = np.hypot(d[..., 0], d[..., 1])
    pts = p0 + t[:, None] * d
    return QuadratureRule(pts, w * length, params=t * length)


def at_points(f, pts):
    """``f`` (a map from (npts, 2) points to values or gradients) at stacked
    points (..., 2); the result is shaped (...) or (..., 2)."""
    vals = np.asarray(f(pts.reshape(-1, 2)), dtype=float)
    return vals.reshape(pts.shape[:-1] + vals.shape[1:])


def polygon_area(polygon):
    """Signed area of a polygon (nv, 2), or of each polygon in a stack (..., nv, 2)."""
    x = polygon[..., 0]
    y = polygon[..., 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1)


def polygon_centroid(polygon):
    """Centroid of a polygon (nv, 2), or of each polygon in a stack (..., nv, 2)."""
    x = polygon[..., 0]
    y = polygon[..., 1]
    xn = np.roll(x, -1, axis=-1)
    yn = np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    a = 0.5 * np.sum(cross, axis=-1)
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * a)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * a)
    return np.stack([cx, cy], axis=-1)
