"""Polynomial bases on cells and edges, mass matrices, and L2 projections.

The P_k cell basis of the weak functions is scaled monomials centered at
the cell centroid.  Scaling by the cell diameter makes their mass matrices
independent of h, but not of the degree: on a triangle the condition number
is about 1e8 at degree 4 and 1e10 at degree 5, so monomials are no basis
for the P_j lifting space of the weak Laplacian.  That space gets an
orthonormal basis per cell instead, built from products of Legendre
polynomials in the same scaled coordinates.  Edge bases are Legendre
polynomials in arclength, normalized to be orthonormal with respect to the
edge line integral.
"""

import functools

import numpy as np
from numpy.polynomial.legendre import legvander

from .quadrature import at_points, quad_cell, quad_edge


class SingularCellError(RuntimeError):
    """Raised when a cell mass matrix cannot be factorized."""


def dim_pk(m: int) -> int:
    return (m + 1) * (m + 2) // 2


@functools.lru_cache(maxsize=None)
def monomial_exponents(degree):
    """Exponent pairs (ea, eb) of all monomials x^ea y^eb of total degree
    <= degree, graded-lexicographically: degree blocks 0, 1, ..., and within
    a block the x-exponent descends."""
    ea, eb = [], []
    for d in range(degree + 1):
        for i in range(d + 1):
            ea.append(d - i)
            eb.append(i)
    return np.array(ea, dtype=np.intp), np.array(eb, dtype=np.intp)


def monomial_table(pts, cx, cy, h, degree):
    """Values, gradients, and Laplacians of the scaled monomials
    ((x-cx)/h)^a ((y-cy)/h)^b, a+b <= degree, at ``pts`` (npoints, 2).

    Returns arrays (vals, gx, gy, lap), each of shape (npoints, nbasis),
    with derivatives in the physical coordinates (factors 1/h and 1/h^2).
    """
    pts = np.asarray(pts, dtype=np.float64)
    x = (pts[:, 0] - cx) / h
    y = (pts[:, 1] - cy) / h
    q = x.shape[0]

    # Power tables px[:, a] = x**a, padded by two leading zero columns so
    # that exponent e-1 / e-2 lookups stay in range (factor e makes the
    # spurious columns irrelevant).
    px = np.ones((q, degree + 3))
    py = np.ones((q, degree + 3))
    for a in range(1, degree + 1):
        px[:, a + 2] = px[:, a + 1] * x
        py[:, a + 2] = py[:, a + 1] * y
    px[:, :2] = 0.0
    py[:, :2] = 0.0
    px[:, 2] = 1.0
    py[:, 2] = 1.0

    ea, eb = monomial_exponents(degree)
    fa = ea.astype(np.float64)
    fb = eb.astype(np.float64)

    vals = px[:, ea + 2] * py[:, eb + 2]
    gx = fa * px[:, ea + 1] * py[:, eb + 2] / h
    gy = fb * px[:, ea + 2] * py[:, eb + 1] / h
    lap = (
        fa * (fa - 1.0) * px[:, ea] * py[:, eb + 2]
        + fb * (fb - 1.0) * px[:, ea + 2] * py[:, eb]
    ) / (h * h)
    return vals, gx, gy, lap


class CellBasis:
    """Scaled monomial basis of P_m on a cell with given centroid/diameter.

    A stack of cells (centroids (..., 2), diameters (...)) is one basis per
    cell, evaluated at per-cell points (..., npts, 2).
    """

    def __init__(self, degree: int, centroid, diameter):
        self.degree = degree
        self.centroid = np.asarray(centroid, dtype=float)
        self.diameter = np.asarray(diameter, dtype=float)
        self.dim = dim_pk(degree)

    def tables(self, pts):
        """(values, d/dx, d/dy, Laplacian) tables, each (..., npts, dim)."""
        h = self.diameter[..., None, None]
        x = (np.asarray(pts, dtype=np.float64) - self.centroid[..., None, :]) / h
        shape = x.shape[:-1] + (self.dim,)
        v, gx, gy, lap = (
            t.reshape(shape)
            for t in monomial_table(
                np.ascontiguousarray(x.reshape(-1, 2)), 0.0, 0.0, 1.0, self.degree
            )
        )
        return v, gx / h, gy / h, lap / (h * h)

    def values(self, pts):
        return self.tables(pts)[0]

    def gradients(self, pts):
        v, gx, gy, lap = self.tables(pts)
        return np.stack([gx, gy], axis=-1)

    def laplacians(self, pts):
        return self.tables(pts)[3]


def _legendre_1d(t, degree):
    """P_n(t) for n <= degree, shaped t.shape + (degree + 1,)."""
    p = np.zeros(t.shape + (degree + 1,))
    p[..., 0] = 1.0
    if degree >= 1:
        p[..., 1] = t
    for n in range(1, degree):
        p[..., n + 1] = ((2 * n + 1) * t * p[..., n] - n * p[..., n - 1]) / (n + 1)
    return p


def _legendre_derivative(p):
    """Derivatives of the Legendre series in ``p`` (last axis the degree n),
    by P'_{n+1} = P'_{n-1} + (2n+1) P_n; applied to P_n it gives P_n'."""
    d = np.zeros_like(p)
    for n in range(p.shape[-1] - 1):
        d[..., n + 1] = (2 * n + 1) * p[..., n] + (d[..., n - 1] if n else 0.0)
    return d


def _scaled_legendre(pts, centroid, diameter, degree):
    """h = diameter / 2 and the 1-D tables P_n(x'), P_n(y') at ``pts``."""
    h = 0.5 * np.asarray(diameter, dtype=float)[..., None, None]
    x = (np.asarray(pts, dtype=np.float64) - np.asarray(centroid)[..., None, :]) / h
    return h, _legendre_1d(x[..., 0], degree), _legendre_1d(x[..., 1], degree)


def legendre_values(pts, centroid, diameter, degree):
    """Values of the Legendre products of ``legendre_table`` only."""
    _, px, py = _scaled_legendre(pts, centroid, diameter, degree)
    ea, eb = monomial_exponents(degree)
    return px[..., ea] * py[..., eb]


def legendre_table(pts, centroid, diameter, degree):
    """Values, gradients, and Laplacians of Legendre products at ``pts``.

    The functions are P_a(x') P_b(y') with a+b <= degree, in the graded
    order of the scaled monomials, and (x', y') = (pts - centroid) / h for
    h = diameter / 2, which keeps a cell near [-1, 1]^2.  ``centroid``
    (..., 2) and ``diameter`` (...) may be per cell, with ``pts``
    (..., npts, 2).  Returns (vals, gx, gy, lap), each (..., npts, nbasis),
    with physical derivatives.
    """
    h, px, py = _scaled_legendre(pts, centroid, diameter, degree)
    dpx, dpy = _legendre_derivative(px), _legendre_derivative(py)
    ddpx, ddpy = _legendre_derivative(dpx), _legendre_derivative(dpy)
    ea, eb = monomial_exponents(degree)
    vals = px[..., ea] * py[..., eb]
    gx = dpx[..., ea] * py[..., eb] / h
    gy = px[..., ea] * dpy[..., eb] / h
    lap = (ddpx[..., ea] * py[..., eb] + px[..., ea] * ddpy[..., eb]) / (h * h)
    return vals, gx, gy, lap


class OrthonormalCellBasis(CellBasis):
    """Basis of P_m on a cell that is orthonormal under a cell quadrature rule.

    The Legendre products V of ``legendre_table`` are orthonormalized by a
    Householder QR of their sqrt(w)-weighted value table, sqrt(w) V = Q R
    (see ``orthonormal_factor``): basis function i is sum_m V_m (R^-1)_mi.
    The Gram matrix of V is never formed, so its conditioning (about 1e7 at
    degree 5 on a triangle, against 1e10 for scaled monomials) enters only
    through R, as its square root.  Like CellBasis it may be a stack, with
    R (..., dim, dim).
    """

    def __init__(self, degree: int, centroid, diameter, r):
        super().__init__(degree, centroid, diameter)
        self.r = r

    def legendre_tables(self, pts):
        return legendre_table(pts, self.centroid, self.diameter, self.degree)

    def tables(self, pts):
        return tuple(from_legendre(self.r, t.swapaxes(-1, -2)).swapaxes(-1, -2)
                     for t in self.legendre_tables(pts))


def from_legendre(r, moments):
    """R^-T moments: moments against the Legendre products mapped to moments
    against the orthonormal basis with factor R.

    Takes stacks of R (..., d, d) with moments (..., d, m), and solves by
    forward substitution on R^T, one row for the whole stack at a time.
    """
    out = np.empty(np.broadcast_shapes(r.shape[:-2], moments.shape[:-2])
                   + moments.shape[-2:])
    for i in range(r.shape[-1]):
        known = (r[..., None, :i, i] @ out[..., :i, :])[..., 0, :]
        out[..., i, :] = (moments[..., i, :] - known) / r[..., i, i, None]
    return out


def orthonormal_factor(vals, weights):
    """R of the QR factorization sqrt(w) V = Q R of a Legendre value table.

    ``vals`` is V at a cell rule's points, (..., npts, dim), and ``weights``
    the rule's weights (..., npts); stacks give one factor per cell.
    Returns (R, ok), with ``ok`` false where the table is numerically rank
    deficient.
    """
    r = np.linalg.qr(np.sqrt(weights)[..., None] * vals, mode="r")
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    ok = np.isfinite(r).all(axis=(-2, -1)) & (diag.min(axis=-1) > 1e-13 * diag.max(axis=-1))
    return r, ok


class EdgeBasis:
    """Orthonormal polynomial basis of P_m(e) in the arclength parameter.

    Arclength runs from ``p0`` to ``p1``; basis i is
    sqrt((2i+1)/L) * P_i(2s/L - 1) with P_i the Legendre polynomial, so the
    Gram matrix over the edge is exactly the identity.  Stacks of endpoints
    (..., 2) give one basis per edge, evaluated at arclengths (..., npts).
    """

    def __init__(self, degree: int, p0, p1):
        self.degree = degree
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        d = self.p1 - self.p0
        self.length = np.hypot(d[..., 0], d[..., 1])
        self.dim = degree + 1
        self._scale = np.sqrt((2.0 * np.arange(self.dim) + 1.0) / self.length[..., None])

    def values(self, s):
        """Basis values at arclength positions ``s`` in [0, L]."""
        t = 2.0 * np.asarray(s, dtype=float) / self.length[..., None] - 1.0
        return legvander(t, self.degree) * self._scale[..., None, :]


def mass_matrix_cell(polygon, basis: CellBasis, rule=None):
    """Gram matrix of the cell basis, integrated exactly (degree 2m)."""
    if rule is None:
        rule = quad_cell(polygon, 2 * basis.degree)
    v = basis.values(rule.points)
    m = v.T @ (rule.weights[:, None] * v)
    if not np.all(np.isfinite(m)):
        raise SingularCellError("non-finite cell mass matrix (degenerate cell?)")
    return m


def mass_matrix_edge(ebasis: EdgeBasis):
    """Edge Gram matrix; identity up to quadrature roundoff."""
    rule = quad_edge(ebasis.p0, ebasis.p1, 2 * ebasis.degree)
    v = ebasis.values(rule.params)
    return v.T @ (rule.weights[:, None] * v)


def project_cell(f, polygon, basis: CellBasis, rule=None):
    """Coefficients of the L2(T) projection of ``f`` onto the cell basis.

    ``f`` maps an (npts, 2) array of points to values.  A stack of polygons
    (..., nv, 2) with a stacked basis gives coefficients (..., dim).
    """
    if rule is None:
        rule = quad_cell(polygon, 2 * basis.degree + 2)
    vt = basis.values(rule.points).swapaxes(-1, -2)
    r = vt @ (rule.weights * at_points(f, rule.points))[..., None]
    m = vt @ (rule.weights[..., None] * vt.swapaxes(-1, -2))
    try:
        return np.linalg.solve(m, r)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularCellError(f"singular cell mass matrix: {exc}") from exc


def project_edge(g, ebasis: EdgeBasis, rule=None):
    """Coefficients of the L2(e) projection of ``g`` onto the edge basis.

    The basis is orthonormal, so projection is a plain inner product.
    ``g`` maps the rule's physical points (..., npts, 2) to values
    (..., npts); a stacked basis gives coefficients (..., dim).
    """
    if rule is None:
        rule = quad_edge(ebasis.p0, ebasis.p1, 2 * ebasis.degree + 2)
    vt = ebasis.values(rule.params).swapaxes(-1, -2)
    return (vt @ (rule.weights * np.asarray(g(rule.points), dtype=float))[..., None])[..., 0]
