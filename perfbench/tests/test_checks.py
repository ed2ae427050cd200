"""Each correctness check of the benchmark rejects a wrong result.

Run: python3 -m pytest perfbench/tests
"""

import io

import numpy as np
import pytest

import inputs
import spans
import workloads
from sfwg import element_operators, load_mesh, solve_biharmonic


def _solved_problem(family="tri", n=4, k=2, seed=5):
    p = inputs.make_problem(0, family, n, k, np.random.default_rng(seed))
    mesh = load_mesh(io.StringIO(p.mesh_text))
    ops = element_operators(mesh, p.k, p.j)
    u_h = solve_biharmonic(mesh, p.k, p.j, p.exact.source,
                           boundary=(p.exact.u, p.exact.grad), ops=ops)
    return p, mesh, ops, u_h


@pytest.mark.parametrize("family,k", [("tri", 2), ("poly", 3)])
@pytest.mark.parametrize("part", ["v0", "vb", "vn"])
def test_perturbed_coefficient_fails_reproduction(family, k, part):
    p, mesh, ops, u_h = _solved_problem(family, 4, k)
    assert workloads.check_reproduction(workloads.sweep_errors(p, u_h, mesh, ops),
                                        p.norm_u) == []
    coeffs = getattr(u_h, part)
    coeffs[len(coeffs) // 2, 0] += 1e-3 * p.norm_u
    assert workloads.check_reproduction(workloads.sweep_errors(p, u_h, mesh, ops),
                                        p.norm_u) != []


def _table(h, errors):
    return [(round(1 / hi), hi, *e) for hi, e in zip(h, errors)]


@pytest.mark.parametrize("name", ["tri-k2-study", "poly-k3-study"])
def test_scaled_finest_l2_error_fails_rate_check(name):
    study = workloads.WORKLOADS[name]
    h = [1 / 8, 1 / 16, 1 / 32]
    errors = [[3.0 * hi ** r for r in study.expected] for hi in h]
    assert workloads.check_rates(_table(h, errors), study.expected, study.tol) == []
    errors[-1][2] *= 1.2
    violations = workloads.check_rates(_table(h, errors), study.expected, study.tol)
    assert len(violations) == 1 and "l2" in violations[0]


def test_generator_refuses_non_convex_cell():
    with pytest.raises(inputs.NonConvexCellError):
        inputs.perturbed_mesh_text("poly", 4, np.random.default_rng(0), amplitude=1.0)


def test_require_convex_rejects_u_shape():
    u_shape = np.array([[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1], [1, 3], [0, 3]],
                       dtype=float)
    with pytest.raises(inputs.NonConvexCellError):
        inputs.require_convex(u_shape, [np.arange(8)])
    inputs.require_convex(u_shape, [np.array([0, 1, 2, 7])])


@pytest.mark.parametrize("seed", range(3))
def test_sweep_meshes_stay_convex(seed):
    rng = np.random.default_rng(seed)
    for family, n, _ in inputs.SWEEP_CASES:
        inputs.perturbed_mesh_text(family, n, rng)


def test_traced_sweep_emits_the_untraced_table():
    problems = inputs.sweep_problems(3)[:4]
    sweep = workloads.WORKLOADS["perturbed-sweep"]
    plain = sweep.run(problems)
    traced = sweep.run(problems, spans.Tracer())
    assert plain.failed == 0 and plain.violations == [] and plain.table == traced.table


def test_sweep_solve_that_raises_fails_the_round(monkeypatch):
    problems = inputs.sweep_problems(3)[:3]
    real = workloads.solve_biharmonic
    fails = iter([False, True, False])

    def solve_or_raise(*args, **kwargs):
        if next(fails):
            raise workloads.SolverError("no convergence")
        return real(*args, **kwargs)

    monkeypatch.setattr(workloads, "solve_biharmonic", solve_or_raise)
    r = workloads.WORKLOADS["perturbed-sweep"].run(problems)
    assert r.attempted == 3 and r.failed == 1
    assert len(r.violations) == 1 and "solve 1 raised SolverError" in r.violations[0]


def test_study_level_not_reached_fails_the_round(monkeypatch):
    import sfwg.study

    real = sfwg.study.solve_biharmonic

    def solve_or_raise(mesh, *args, **kwargs):
        if mesh.n_cells > 200:  # n = 16 has 512 triangles
            raise workloads.SolverError("no convergence")
        return real(mesh, *args, **kwargs)

    monkeypatch.setattr(sfwg.study, "solve_biharmonic", solve_or_raise)
    study = workloads.Study("triangular", 2, (4, 8, 16), expected=(1, 1, 2), tol=0.15)
    r = study.run(None)
    assert r.attempted == 3 and r.failed == 1
    assert r.violations == ["level n=16 not reached"]


def test_table_is_stored_only_from_a_passing_run(tmp_path):
    import run

    def rounds(*tables):
        return [workloads.Round(table=t, latencies={}, wall=0.0, attempted=1, failed=0,
                                violations=[]) for t in tables]

    path = tmp_path / "table.txt"
    assert run.check_tables(rounds(["1 0.5"]), path, may_store=False) == []
    assert not path.exists()
    assert run.check_tables(rounds(["1 0.5"], ["1 0.25"]), path, may_store=True) != []
    assert not path.exists()
    assert run.check_tables(rounds(["1 0.5"]), path, may_store=True) == []
    assert run.check_tables(rounds(["1 0.5"]), path, may_store=True) == []
    assert run.check_tables(rounds(["1 0.25"]), path, may_store=True) != []
