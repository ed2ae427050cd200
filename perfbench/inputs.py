"""Seeded inputs of the perturbed-mesh sweep.

A sweep problem is a triangular or honeycomb mesh of the unit square whose
interior vertices are moved at random, written in the ``polymesh 1`` text
format, together with a random polynomial of degree k that the scheme must
reproduce.  The make-up of the sweep (families, sizes, degrees, order) is
fixed; the seed only moves vertices and draws coefficients, so every seed
asks for the same amount of work.
"""

import io
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from sfwg import ExactSolution, build_polygonal, build_triangular, dump_mesh
from sfwg.study import default_j

# Interior vertices move by at most this fraction of the shortest edge of
# the unperturbed mesh.  Moving the corners a, b, c of a cell by at most d
# each changes (b - a) x (c - b) by at most 2d(|ab| + |ac|) + 4d^2; on every
# mesh of the sweep that stays below the cross product itself for d up to
# 0.179 of the shortest edge, so every cell stays strictly convex.
AMPLITUDE = 0.15

# (family, n, k): one round of the sweep is SWEEP_REPEATS passes over these.
SWEEP_CASES = (
    ("tri", 4, 2), ("tri", 4, 3), ("tri", 6, 2), ("tri", 6, 3),
    ("tri", 8, 2), ("tri", 8, 3), ("tri", 12, 2),
    ("poly", 3, 2), ("poly", 3, 3), ("poly", 4, 2), ("poly", 4, 3),
    ("poly", 6, 2),
)
SWEEP_REPEATS = 10


class NonConvexCellError(ValueError):
    pass


@dataclass
class SweepProblem:
    index: int
    family: str
    n: int
    k: int
    j: int
    mesh_text: str
    exact: ExactSolution
    norm_u: float


def lifting_degree(family, k):
    """The j that ``sfwg`` picks by default for the family."""
    return default_j(k, "polygonal" if family == "poly" else "triangular")


def require_convex(vertices, cells):
    """Raise NonConvexCellError unless every cell turns strictly left at
    every vertex b, that is (b - a) x (c - b) > 0."""
    for i, cell in enumerate(cells):
        d = np.diff(vertices[cell], axis=0, append=vertices[cell][:1])
        dn = np.roll(d, -1, axis=0)
        if not np.all(d[:, 0] * dn[:, 1] - d[:, 1] * dn[:, 0] > 0.0):
            raise NonConvexCellError(f"cell {i} is not strictly convex")


def perturbed_mesh_text(family, n, rng, amplitude=AMPLITUDE):
    """A perturbed mesh of the unit square as ``polymesh 1`` text.

    Vertices on the boundary of the square stay put, so the domain and its
    boundary edges do not change.
    """
    mesh = build_triangular(n) if family == "tri" else build_polygonal(n)
    v = mesh.vertices.copy()
    lo, hi = mesh.vertices[mesh.edges[:, 0]], mesh.vertices[mesh.edges[:, 1]]
    h_min = float(np.hypot(*(hi - lo).T).min())
    interior = np.all((v > 0.0) & (v < 1.0), axis=1)
    m = int(interior.sum())
    radius = amplitude * h_min * np.sqrt(rng.random(m))
    angle = 2.0 * np.pi * rng.random(m)
    v[interior] += radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    require_convex(v, mesh.cells)
    mesh.vertices = v
    buf = io.StringIO()
    dump_mesh(mesh, buf)
    return buf.getvalue()


def _exponents(k):
    return [(d - i, i) for d in range(k + 1) for i in range(d + 1)]


def random_polynomial(k, rng):
    """A random polynomial of degree k <= 3 as an ExactSolution; its
    bilaplacian, the source, is zero."""
    if k > 3:
        raise ValueError(f"the sweep's solutions have degree at most 3, got {k}")
    exponents = _exponents(k)
    terms = [(c, a, b) for c, (a, b) in zip(rng.standard_normal(len(exponents)), exponents)]

    def mono(x, a):
        return x**a if a >= 0 else np.zeros_like(x)

    def u(p):
        x, y = p[:, 0], p[:, 1]
        return sum(c * mono(x, a) * mono(y, b) for c, a, b in terms)

    def grad(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([
            sum(c * a * mono(x, a - 1) * mono(y, b) for c, a, b in terms),
            sum(c * b * mono(x, a) * mono(y, b - 1) for c, a, b in terms),
        ])

    def lap(p):
        x, y = p[:, 0], p[:, 1]
        return sum(c * (a * (a - 1) * mono(x, a - 2) * mono(y, b)
                        + b * (b - 1) * mono(x, a) * mono(y, b - 2))
                   for c, a, b in terms)

    def source(p):
        return np.zeros(len(p))

    return ExactSolution(f"poly{k}", u, grad, lap, source)


def solution_norm(exact):
    """(||u||^2 + ||grad u||^2 + ||lap u||^2)^(1/2) over the unit square.

    A tensor Gauss-Legendre rule, independent of ``sfwg.quadrature``, exact
    for the squares of polynomials up to degree 7.
    """
    t, w = leggauss(4)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    pts = np.column_stack([np.repeat(t, 4), np.tile(t, 4)])
    wts = np.repeat(w, 4) * np.tile(w, 4)
    total = (wts @ exact.u(pts) ** 2 + wts @ np.sum(exact.grad(pts) ** 2, axis=1)
             + wts @ exact.laplacian(pts) ** 2)
    return float(np.sqrt(total))


def make_problem(index, family, n, k, rng):
    exact = random_polynomial(k, rng)
    return SweepProblem(
        index=index, family=family, n=n, k=k, j=lifting_degree(family, k),
        mesh_text=perturbed_mesh_text(family, n, rng),
        exact=exact, norm_u=solution_norm(exact),
    )


def sweep_problems(seed):
    """Every problem of one sweep round, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    cases = SWEEP_CASES * SWEEP_REPEATS
    return [make_problem(i, *case, rng) for i, case in enumerate(cases)]
