"""Quadrature rules on triangles, convex polygons, and edges.

Every rule is built from one Gauss-Legendre rule on [0, 1].  Triangle
rules are its collapsed product (Duffy, SIAM J. Numer. Anal. 19 (1982)
1260-1262) with the Jacobian of the collapse in the weights, which gives
positive weights and exactness for any requested polynomial degree up to
the cap.  A convex polygon is integrated by fanning triangles from its
first vertex.
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


@functools.lru_cache(maxsize=None)
def reference_triangle_rule(degree):
    """Rule on the unit triangle {x,y >= 0, x+y <= 1}, exact to ``degree``.

    x = xi, y = eta (1 - xi) takes x^a y^b, a + b <= degree, to
    xi^a (1 - xi)^(b+1) eta^b, so n = (degree + 3) // 2 Gauss-Legendre
    points in each direction, xi-major, with 1 - xi in the xi weights.
    """
    _check_degree(max(degree, 0))
    t, w = reference_edge_rule((degree + 3) // 2)
    X = np.repeat(t, len(t))
    pts = np.column_stack([X, np.tile(t, len(t)) * (1.0 - X)])
    w = np.outer(w * (1.0 - t), w).ravel()
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
