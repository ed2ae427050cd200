import numpy as np
import pytest
import scipy.sparse as sp

from sfwg.basis import CellBasis
from sfwg.errors import triple_bar_norm
from sfwg.mesh import build_polygonal, build_triangular, cell_stacks
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
from sfwg.weakop import interpolate_qh, local_dofs


def zero_f(p):
    return np.zeros(len(p))


def test_free_dof_count():
    # n=1, k=2: 2 cells * 6 + 1 interior edge * 2 * 2 = 16
    mesh = build_triangular(1)
    dm = build_dof_map(mesh, 2)
    assert dm.n_free == 16
    assert dm.n_total == 12 + 2 * 2 * mesh.n_edges


def test_cell_dofs_marks_boundary_constrained():
    mesh = build_triangular(1)
    dm = build_dof_map(mesh, 2)
    loc = local_dofs(mesh, cell_stacks(mesh, [0])[0], 2)[0]
    idx, vals = dm.pos[loc], dm.constrained.flat()[loc]
    assert (idx[:6] == np.arange(6)).all()
    # exactly one of the three edges is interior
    n_constrained = int((idx < 0).sum())
    assert n_constrained == 2 * 2 * 2
    assert np.allclose(vals, 0.0)


def test_zero_load_gives_zero_solution():
    mesh = build_triangular(2)
    u = solve_biharmonic(mesh, 2, 4, zero_f)
    assert np.allclose(u.v0, 0.0)
    assert np.allclose(u.vb, 0.0)
    assert np.allclose(u.vn, 0.0)


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
    for cell in range(mesh.n_cells):
        basis = CellBasis(k, mesh.cell_centroid[cell], mesh.cell_diameter[cell])
        rule = quad_cell(mesh.cell_polygon(cell), 2 * k)
        d = basis.values(rule.points) @ (uh.v0[cell] - qh.v0[cell])
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
        assert triple_bar_norm(v, mesh, k, j) == pytest.approx(
            np.sqrt(quad), rel=1e-9
        )
