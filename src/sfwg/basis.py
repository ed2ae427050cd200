"""Polynomial bases on cells and edges.

Cell polynomials are products of Legendre polynomials P_a(x') P_b(y'),
a + b <= m, in the coordinates (x', y') = (x - c) / (d / 2) of a cell with
centroid c and diameter d, which keep the cell near [-1, 1]^2.  In the graded
order of ``monomial_exponents`` the products of degree <= k lead those of
degree j > k, so the P_k basis of v0 is the leading part of the P_j
products V, which the weak Laplacian orthonormalizes per cell shape as V R^-1
(``orthonormal_factor``, ``from_legendre``).  Edge bases are Legendre
polynomials in arclength, orthonormal with respect to the edge line integral
(``edge_values``), so an edge L2 projection is a plain inner product.
"""

import functools

import numpy as np
from numpy.polynomial.legendre import legvander


class SingularCellError(RuntimeError):
    """Raised when a shape's quadrature-weighted P_j table is numerically
    rank deficient (``orthonormal_factor``), so the cell has no orthonormal
    P_j basis under its rule."""


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
    ea, eb = np.array(ea, dtype=np.intp), np.array(eb, dtype=np.intp)
    ea.setflags(write=False)
    eb.setflags(write=False)
    return ea, eb


def _legendre_derivative(p):
    """Derivatives of the Legendre series in ``p`` (last axis the degree n),
    by P'_{n+1} = P'_{n-1} + (2n+1) P_n; applied to P_n it gives P_n'."""
    d = np.zeros_like(p)
    for n in range(p.shape[-1] - 1):
        d[..., n + 1] = (2 * n + 1) * p[..., n] + (d[..., n - 1] if n else 0.0)
    return d


def _scaled_legendre(pts, centroid, diameter, degree):
    """h = diameter / 2 and the 1-D tables P_n(x'), P_n(y') at ``pts``, each
    shaped (..., npts, degree + 1)."""
    h = 0.5 * np.asarray(diameter, dtype=float)[..., None, None]
    x = (np.asarray(pts, dtype=np.float64) - np.asarray(centroid)[..., None, :]) / h
    return h, legvander(x[..., 0], degree), legvander(x[..., 1], degree)


def legendre_values(pts, centroid, diameter, degree):
    """Values of the Legendre products of ``legendre_table`` only."""
    _, px, py = _scaled_legendre(pts, centroid, diameter, degree)
    ea, eb = monomial_exponents(degree)
    vals = px[..., ea]
    vals *= py[..., eb]
    return vals


def legendre_table(pts, centroid, diameter, degree):
    """Values and gradients of Legendre products at ``pts``.

    The functions are P_a(x') P_b(y') with a+b <= degree, in the graded
    order of ``monomial_exponents``, and (x', y') = (pts - centroid) / h for
    h = diameter / 2, which keeps a cell near [-1, 1]^2.  ``centroid``
    (..., 2) and ``diameter`` (...) may be per cell, with ``pts``
    (..., npts, 2).  Returns (vals, gx, gy), each (..., npts, nbasis), with
    physical derivatives.
    """
    h, px, py = _scaled_legendre(pts, centroid, diameter, degree)
    dpx, dpy = _legendre_derivative(px), _legendre_derivative(py)
    ea, eb = monomial_exponents(degree)
    # Each product is formed in its left factor's gathered copy, so a table
    # takes one temporary of its size, not two.
    vals, gx, gy = px[..., ea], dpx[..., ea], px[..., ea]
    vals *= py[..., eb]
    gx *= py[..., eb]
    gx /= h
    gy *= dpy[..., eb]
    gy /= h
    return vals, gx, gy


@functools.lru_cache(maxsize=None)
def legendre_laplacian(degree):
    """Laplacians of the Legendre products as Legendre-product coefficients.

    Column i holds the coefficients of P_a''(x') P_b(y') + P_a(x') P_b''(y')
    for product i = (a, b); divided by h^2 they are the physical Laplacian.
    A Laplacian has degree two less, so only the leading dim P_{degree-2}
    rows are nonzero.
    """
    # dd[m, n]: coefficient of P_m in P_n''
    dd = _legendre_derivative(_legendre_derivative(np.eye(degree + 1)))
    ea, eb = monomial_exponents(degree)
    lap = (dd[ea[:, None], ea] * (eb[:, None] == eb)
           + (ea[:, None] == ea) * dd[eb[:, None], eb])
    lap.setflags(write=False)
    return lap


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


def orthonormal_factor(weighted):
    """R of the QR factorization sqrt(w) V = Q R of a Legendre value table.

    ``weighted`` is sqrt(w) V, the table V at a cell rule's points scaled
    by the square roots of the rule's weights w, (..., npts, dim); stacks
    give one factor per entry.  Returns (R, ok), with ``ok`` false where the
    table is numerically rank deficient.
    """
    r = np.linalg.qr(weighted, mode="r")
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    ok = np.isfinite(r).all(axis=(-2, -1)) & (diag.min(axis=-1) > 1e-13 * diag.max(axis=-1))
    return r, ok


def edge_values(degree, p0, p1, s):
    """Orthonormal basis of P_degree(e) at arclengths ``s`` from ``p0``.

    Basis i is sqrt((2i+1)/L) * P_i(2s/L - 1), with P_i the Legendre
    polynomial and L = |p1 - p0|, so the Gram matrix over the edge is
    exactly the identity.  Stacks of endpoints (..., 2) give one basis per
    edge, at arclengths (..., npts); values are (..., npts, degree + 1).
    """
    d = np.asarray(p1, dtype=float) - np.asarray(p0, dtype=float)
    length = np.hypot(d[..., 0], d[..., 1])[..., None]
    t = 2.0 * np.asarray(s, dtype=float) / length - 1.0
    scale = np.sqrt((2.0 * np.arange(degree + 1) + 1.0) / length)
    return legvander(t, degree) * scale[..., None, :]
