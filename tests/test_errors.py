import functools
import math

import numpy as np
import pytest

from sfwg.basis import dim_pk, legendre_laplacian
from sfwg.errors import (
    ZERO,
    convergence_rates,
    error_2h,
    error_l2,
    error_triple,
)
from sfwg.mesh import build_polygonal, build_triangular, cell_stacks
from sfwg.solutions import builtin_solution
from sfwg.study import StudyConfig, run_study
from sfwg.system import solve_biharmonic
from sfwg.weakop import (
    WeakFunction,
    cell_rule_degree,
    cell_tables,
    edge_rule_degree,
    edge_tables,
    element_operators,
    interpolate_qh,
    on_cells,
    per_cell,
)
from test_system import REFERENCE_MESHES


def zero_weak(mesh, k):
    return WeakFunction(
        k=k,
        v0=np.zeros((mesh.n_cells, dim_pk(k))),
        vb=np.zeros((mesh.n_edges, k)),
        vn=np.zeros((mesh.n_edges, k)),
    )


def test_rates_exact_halving():
    rates = convergence_rates([4.0, 1.0], [1.0, 0.5])
    assert rates == [2.0]


def test_rates_multiple_and_none():
    rates = convergence_rates([1.0, 0.25, 0.0625], [1.0, 0.5, 0.25])
    assert rates == pytest.approx([2.0, 2.0])
    assert convergence_rates([1.0, 0.0], [1.0, 0.5]) == [None]
    with pytest.raises(ValueError):
        convergence_rates([1.0], [1.0])


def test_rates_of_equal_mesh_sizes_are_none():
    # Two levels of one mesh: log(h/h) = 0 leaves the rate undefined.
    assert convergence_rates([2.0, 1.0], [0.25, 0.25]) == [None]
    assert convergence_rates([4.0, 1.0, 1.0], [1.0, 0.5, 0.5]) == [2.0, None]


def test_rate_from_typical_error_pair():
    # consecutive energy errors 9.5700e-3 (h) and 4.7707e-3 (h/2)
    (rate,) = convergence_rates([9.5700e-3, 4.7707e-3], [1.0, 0.5])
    assert rate == pytest.approx(1.0042, abs=0.01)


def test_solution2_point_values():
    ex = builtin_solution(2)
    p = np.array([[0.5, 0.5]])
    assert ex.u(p)[0] == pytest.approx(1.0)
    assert ex.source(p)[0] == pytest.approx(4.0 * np.pi**4)
    assert np.allclose(ex.grad(p)[0], 0.0, atol=1e-15)


def test_builtin_source_is_bilaplacian():
    # nested centered finite differences of u as an independent oracle for f
    eps = 1e-3
    pts = np.array([[0.31, 0.42], [0.66, 0.23], [0.5, 0.74]])
    for sid in (1, 2):
        ex = builtin_solution(sid)

        def lap_fd(p):
            out = -4.0 * ex.u(p)
            for dx, dy in [(eps, 0), (-eps, 0), (0, eps), (0, -eps)]:
                out = out + ex.u(p + [dx, dy])
            return out / eps**2

        bilap = -4.0 * lap_fd(pts)
        for dx, dy in [(eps, 0), (-eps, 0), (0, eps), (0, -eps)]:
            bilap = bilap + lap_fd(pts + [dx, dy])
        bilap /= eps**2
        assert np.allclose(bilap, ex.source(pts), rtol=1e-4, atol=1e-2)


def test_builtin_laplacian_matches_gradient():
    eps = 1e-6
    pts = np.array([[0.37, 0.81], [0.12, 0.55]])
    for sid in (1, 2):
        ex = builtin_solution(sid)
        div = (
            ex.grad(pts + [eps, 0])[:, 0]
            - ex.grad(pts - [eps, 0])[:, 0]
            + ex.grad(pts + [0, eps])[:, 1]
            - ex.grad(pts - [0, eps])[:, 1]
        ) / (2 * eps)
        assert np.allclose(div, ex.laplacian(pts), atol=1e-8)


def test_errors_against_zero_function_equal_norms_of_u():
    # with u_h = 0, error_triple reduces to ||lap u|| projected and
    # error_l2 to ||u||; check the L2 one against direct quadrature.
    mesh = build_triangular(4)
    ex = builtin_solution(2)
    z = zero_weak(mesh, 2)
    got = error_l2(ex, z, mesh)
    assert got == pytest.approx(0.5, rel=1e-6)  # ||sin sin|| = 1/2
    assert error_triple(ex, z, mesh, 2, 4) > 0.0
    assert error_2h(ex, z, mesh, 2) > 0.0


def test_triple_norm_homogeneous():
    mesh = build_triangular(2)
    k = 2
    rng = np.random.default_rng(5)
    v = WeakFunction(
        k=k,
        v0=rng.standard_normal((mesh.n_cells, dim_pk(k))),
        vb=rng.standard_normal((mesh.n_edges, k)),
        vn=rng.standard_normal((mesh.n_edges, k)),
    )
    w = WeakFunction(k=k, v0=3.0 * v.v0, vb=3.0 * v.vb, vn=3.0 * v.vn)
    assert error_triple(ZERO, w, mesh, k, 4) == pytest.approx(
        3.0 * error_triple(ZERO, v, mesh, k, 4), rel=1e-12
    )
    assert error_2h(ZERO, w, mesh, k) == pytest.approx(
        3.0 * error_2h(ZERO, v, mesh, k), rel=1e-12
    )


def test_norm_2h_zero_only_at_zero():
    mesh = build_triangular(2)
    z = zero_weak(mesh, 2)
    assert error_2h(ZERO, z, mesh, 2) == 0.0
    z.vb[0, 0] = 1.0
    assert error_2h(ZERO, z, mesh, 2) > 0.0


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("build", [build_triangular, build_polygonal])
def test_norm_2h_vanishes_on_linear_interpolants(build, k):
    # For linear u, Q_h u has lap v0 = 0, Qb(v0 - v_b) = 0 and
    # (grad v0 - v_n n_e) . n = 0: every term of ||.||_{2,h} is zero.
    mesh = build(4)
    q = interpolate_qh(lambda p: 0.3 + 2.0 * p[:, 0] - 1.5 * p[:, 1],
                       lambda p: np.tile([2.0, -1.5], (len(p), 1)), mesh, k)
    assert error_2h(ZERO, q, mesh, k) < 1e-9


def test_exact_interpolant_has_small_triple_error():
    # Q_h u is near-optimal in the energy norm: the triple-bar error of
    # the interpolant decays at the same rate as the solver's.
    ex = builtin_solution(1)
    errs = []
    for n in (4, 8):
        mesh = build_triangular(n)
        q = interpolate_qh(ex.u, ex.grad, mesh, 2)
        errs.append(error_triple(ex, q, mesh, 2, 4))
    assert errs[1] < 0.6 * errs[0]


@pytest.mark.parametrize("j", [3, 4, 6])
def test_error_triple_takes_the_degree_of_its_operators(j):
    # Given operators, their own P_j degree counts, not the j argument.
    mesh = build_triangular(4)
    ex = builtin_solution(1)
    q = interpolate_qh(ex.u, ex.grad, mesh, 2)
    want = error_triple(ex, q, mesh, 2, 5)
    assert want != error_triple(ex, q, mesh, 2, 4)
    assert error_triple(ex, q, mesh, 2, j, ops=element_operators(mesh, 2, 5)) == want


def test_error_pipeline_small_solve():
    mesh = build_triangular(4)
    ex = builtin_solution(1)
    uh = solve_biharmonic(mesh, 2, 4, ex.source)
    e3 = error_triple(ex, uh, mesh, 2, 4)
    e2 = error_2h(ex, uh, mesh, 2)
    el = error_l2(ex, uh, mesh)
    assert 0.0 < el < e3
    assert e2 > 0.0


@pytest.mark.parametrize("family,builder,n", [("triangular", build_triangular, 4),
                                              ("polygonal", build_polygonal, 4)])
def test_study_rows_equal_standalone_errors(family, builder, n):
    # run_study shares its element operators with the solve and error_triple;
    # error_2h and error_l2 take none.  Each row must be what the
    # standalone calls, which build everything themselves, give bit for bit.
    ex = builtin_solution(1)
    k = 2
    j = StudyConfig(family=family, k=k).effective_j()
    row = run_study(StudyConfig(example=1, family=family, k=k, levels=[n])).rows[0]
    mesh = builder(n)
    u_h = solve_biharmonic(mesh, k, j, ex.source, boundary=(ex.u, ex.grad))
    assert row["err_triple"] == error_triple(ex, u_h, mesh, k, j)
    assert row["err_2h"] == error_2h(ex, u_h, mesh, k)
    assert row["err_l2"] == error_l2(ex, u_h, mesh)


def reference_error_2h(exact, u_h, mesh, k):
    """``error_2h`` with its edge terms by edge quadrature, on the shapes'
    edge tables gathered per cell."""
    total = 0.0
    for stack in cell_stacks(mesh):
        ref, of = stack.shapes
        c0 = u_h.v0[stack.cells]
        h_t = stack.diameter
        rule, vals = cell_tables(ref, k, cell_rule_degree(k + 2))
        lap_h = vals @ legendre_laplacian(k) / (0.25 * ref.diameter[:, None, None] ** 2)
        lap = on_cells(exact.laplacian, stack, rule) - per_cell(lap_h, of, c0)
        t_lap = np.sum(rule.weights[of] * lap * lap, axis=-1)
        erule, chi, vk, grad_n = edge_tables(ref, k, k, edge_rule_degree(k, k + 2))
        w, chi, vk, grad_n = erule.weights[of], chi[of], vk[of], grad_n[of]
        coeffs = u_h.vb[stack.edges] - np.einsum(
            "ctqa,ctq->cta", chi, w * np.einsum("ctqi,ci->ctq", vk, c0))
        t_jump = np.sum(coeffs * coeffs, axis=(1, 2)) / h_t**3
        flux = (stack.sigma[..., None] * np.einsum("ctqa,cta->ctq", chi, u_h.vn[stack.edges])
                - np.einsum("ctqi,ci->ctq", grad_n, c0))
        t_flux = np.sum(w * flux * flux, axis=(1, 2)) / h_t
        total += float(np.sum(t_lap + t_jump + t_flux))
    return math.sqrt(total)


def reference_v0(u, mesh, k):
    """The v0 of ``interpolate_qh``: per cell, its gathered mass matrix
    solved against the moments of u."""
    v0 = np.empty((mesh.n_cells, dim_pk(k)))
    for stack in cell_stacks(mesh):
        ref, of = stack.shapes
        rule, vals = cell_tables(ref, k, cell_rule_degree(k))
        wvt = (rule.weights[..., None] * vals).swapaxes(-1, -2)
        moments = per_cell(wvt, of, on_cells(u, stack, rule))
        v0[stack.cells] = np.linalg.solve((wvt @ vals)[of], moments[..., None])[..., 0]
    return v0


@functools.lru_cache(maxsize=None)
def solved_case(name, k):
    """A mesh and the example-2 solution on it with its boundary data."""
    make, extra = REFERENCE_MESHES[name]
    mesh, ex = make(), builtin_solution(2)
    return mesh, solve_biharmonic(mesh, k, k + extra, ex.source, boundary=(ex.u, ex.grad))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", REFERENCE_MESHES)
def test_error_2h_matches_edge_quadrature_reference(name, k):
    mesh, u_h = solved_case(name, k)
    ex = builtin_solution(2)
    assert error_2h(ex, u_h, mesh, k) == pytest.approx(
        reference_error_2h(ex, u_h, mesh, k), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", REFERENCE_MESHES)
def test_interpolant_matches_per_cell_mass_solve_reference(name, k):
    mesh, ex = REFERENCE_MESHES[name][0](), builtin_solution(2)
    # Relative to each cell's coefficient vector: its small coefficients
    # differ by roundoff of the large ones.
    got, want = interpolate_qh(ex.u, ex.grad, mesh, k).v0, reference_v0(ex.u, mesh, k)
    assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-12 * np.linalg.norm(want, axis=1))
