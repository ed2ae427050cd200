"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them all); the slow convergence studies are shared through module-scoped
fixtures.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sfwg
from sfwg.basis import dim_pk, legendre_values, monomial_exponents
from sfwg.cli import main
from sfwg.errors import convergence_rates, error_2h
from sfwg.mesh import build_polygonal, build_triangular
from sfwg.quadrature import quad_cell
from sfwg.study import StudyConfig, run_study
from sfwg.system import assemble, build_dof_map, solve_biharmonic, weak_function_from_free
from sfwg.weakop import element_operators
from test_mesh import cell_frames
from test_system import ZERO
from test_weakop import interpolate_qh, local_dofs, per_cell


def _report(ok: bool, label: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def _timed_study(**kwargs):
    config = StudyConfig(mesh_files=[], j=None, tol=1e-12, **kwargs)
    t0 = time.perf_counter()
    report = run_study(config)
    return report, time.perf_counter() - t0


def _final_rates(report):
    prev, row = report.rows[-2:]
    return tuple(convergence_rates([prev[key], row[key]], [prev["h"], row["h"]])[0]
                 for key in ("err_triple", "err_2h", "err_l2"))


@pytest.fixture(scope="module")
def study_tri_k2():
    return _timed_study(example=1, family="triangular", k=2, levels=[8, 16, 32, 64])


@pytest.fixture(scope="module")
def study_tri_k3():
    return _timed_study(example=2, family="triangular", k=3, levels=[2, 4, 8, 16, 32])


@pytest.fixture(scope="module")
def study_poly_k2():
    return _timed_study(example=1, family="polygonal", k=2, levels=[8, 16, 32, 64])


@pytest.fixture(scope="module")
def study_poly_k3():
    return _timed_study(example=1, family="polygonal", k=3, levels=[4, 8, 16, 32])


def test_criterion_1_triangular_k2_rates(study_tri_k2):
    report, elapsed = study_tri_k2
    rates = _final_rates(report)
    ok = (
        "error" not in report.metadata
        and len(report.rows) == 4
        and abs(rates[0] - 1.0) <= 0.15
        and abs(rates[1] - 1.0) <= 0.15
        and abs(rates[2] - 2.0) <= 0.15
        and elapsed < 60.0
    )
    _report(ok, "criterion 1: triangular k=2 final rates "
                f"{tuple(round(r, 4) for r in rates)} in {elapsed:.1f}s")


def test_criterion_2_triangular_k3_rates(study_tri_k3):
    report, elapsed = study_tri_k3
    rates = _final_rates(report)
    ok = (
        "error" not in report.metadata
        and len(report.rows) == 5
        and abs(rates[0] - 2.0) <= 0.15
        and abs(rates[1] - 2.0) <= 0.15
        and abs(rates[2] - 4.0) <= 0.15
        and elapsed < 180.0
    )
    _report(ok, "criterion 2: triangular k=3 final rates "
                f"{tuple(round(r, 4) for r in rates)} in {elapsed:.1f}s")


def test_criterion_2_l2_error_at_n32_matches_extended_precision(study_tri_k3):
    # The extended-precision reference of err_l2 at n=32 is 1.4160e-7; a
    # floor of float64 rounding in the solve read 1.5226e-7 here.
    report, _ = study_tri_k3
    row = next(r for r in report.rows if r["n"] == 32)
    ok = abs(row["err_l2"] / 1.4160e-7 - 1.0) <= 1e-3
    _report(ok, f"criterion 2: n=32 err_l2 {row['err_l2']!r} against 1.4160e-7")


@pytest.mark.parametrize("k,j,levels,expected,tol", [(3, None, [16, 32, 64], 4.0, 0.15),
                                                     (5, 8, [4, 8, 16], 6.0, 0.2)],
                         ids=["k3", "k5"])
def test_example_2_l2_rate_is_not_held_by_roundoff(k, j, levels, expected, tol):
    # Where float64 rounding of the assembled stiffness set a floor, the
    # final L2 rate read 0.58 (k=3) and 1.20 (k=5); the element residual
    # of the refinement removes it.
    report = run_study(StudyConfig(example=2, family="triangular", k=k, j=j, levels=levels))
    rate = _final_rates(report)[2]
    ok = "error" not in report.metadata and abs(rate - expected) <= tol
    _report(ok, f"example 2, triangles, k={k}: final L2 rate {rate:.4f}, expected {expected}")


def test_criterion_3_error_magnitudes(study_tri_k2):
    report, _ = study_tri_k2
    row = report.rows[0]  # n = 8
    ref = {"err_triple": 9.5700e-03, "err_2h": 1.5165e-02, "err_l2": 4.6178e-05}
    ok = all(ref[key] / 3.0 <= row[key] <= ref[key] * 3.0 for key in ref)
    _report(ok, "criterion 3: n=8 error magnitudes "
                f"({row['err_triple']:.4e}, {row['err_2h']:.4e}, {row['err_l2']:.4e})")


def test_criterion_4_polygonal_rates(study_poly_k2, study_poly_k3):
    ok = True
    detail = []
    for (report, _), targets in (
        (study_poly_k2, (1.0, 1.0, 2.0)),
        (study_poly_k3, (2.0, 2.0, 4.0)),
    ):
        rates = _final_rates(report)
        detail.append(tuple(round(r, 4) for r in rates))
        ok = ok and "error" not in report.metadata and len(report.rows) == 4
        ok = ok and all(abs(r - t) <= 0.2 for r, t in zip(rates, targets))
    _report(ok, f"criterion 4: polygonal final rates k=2 {detail[0]}, k=3 {detail[1]}")


def _random_polynomial(rng, k):
    ax, ay = monomial_exponents(k)
    c = rng.standard_normal(len(ax))

    def u(p):
        x, y = p[:, 0], p[:, 1]
        return sum(ci * x**a * y**b for ci, a, b in zip(c, ax, ay))

    def grad(p):
        x, y = p[:, 0], p[:, 1]
        gx = sum(ci * a * x ** max(a - 1, 0) * y**b
                 for ci, a, b in zip(c, ax, ay) if a > 0)
        gy = sum(ci * b * x**a * y ** max(b - 1, 0)
                 for ci, a, b in zip(c, ax, ay) if b > 0)
        return np.column_stack([np.broadcast_to(gx, len(p)),
                                np.broadcast_to(gy, len(p))])

    def lap(p):
        x, y = p[:, 0], p[:, 1]
        out = np.zeros(len(p))
        for ci, a, b in zip(c, ax, ay):
            if a >= 2:
                out += ci * a * (a - 1) * x ** (a - 2) * y**b
            if b >= 2:
                out += ci * b * (b - 1) * x**a * y ** (b - 2)
        return out

    return u, grad, lap


def test_criterion_5_operator_exactness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for mesh, family in ((build_triangular(4), "tri"), (build_polygonal(4), "poly")):
        for k in (2, 3):
            j = k + (2 if family == "tri" else 4)
            ops = element_operators(mesh, k, j)
            for _ in range(10):
                u, grad, lap = _random_polynomial(rng, k)
                v = interpolate_qh(u, grad, mesh, k)
                cell_errs = []
                den2 = 0.0
                for op in ops:
                    lifted = per_cell(op.matrix, op.stack.shapes[1],
                                      v.flat()[local_dofs(mesh, op.stack, k)])
                    for c, cell in enumerate(op.stack.cells):
                        # Pi_j lap u by weighted least squares on the cell's
                        # own rule in the Legendre products V, mapped by the
                        # R of the cell's shape to the operator's orthonormal
                        # basis psi = V R^-1.
                        rule = quad_cell(mesh.vertices[mesh.cells[cell]], 2 * j + 2)
                        sw = np.sqrt(rule.weights)
                        vals = legendre_values(rule.points, op.stack.centroid[c],
                                               op.stack.diameter[c], j)
                        coeffs = np.linalg.lstsq(sw[:, None] * vals, sw * lap(rule.points),
                                                 rcond=None)[0]
                        proj = op.r[op.stack.shapes[1][c]] @ coeffs
                        diff = proj - lifted[c]
                        # psi is orthonormal: coefficient norms are L2(T) norms
                        cell_errs.append(float(np.linalg.norm(diff)))
                        den2 += float(np.sum(proj * proj))
                # per-cell error relative to the field scale; a purely local
                # denominator is meaningless on cells where the Laplacian
                # happens to be tiny
                den = math.sqrt(max(den2, 1e-300))
                worst = max(worst, max(cell_errs) / den)
    ok = worst <= 1e-9
    _report(ok, f"criterion 5: weak-Laplacian exactness, worst relative {worst:.2e}")


def test_criterion_6_patch_reproduction():
    def u(p):
        return p[:, 0] ** 2 - p[:, 0] * p[:, 1] + p[:, 1]

    def grad(p):
        return np.column_stack([2 * p[:, 0] - p[:, 1], 1.0 - p[:, 0]])

    worst = 0.0
    for n in (2, 4):
        mesh = build_triangular(n)
        uh = solve_biharmonic(mesh, 2, 4, lambda p: np.zeros(len(p)),
                              boundary=(u, grad), ops=element_operators(mesh, 2, 4))
        q = interpolate_qh(u, grad, mesh, 2)
        err2 = 0.0
        centroid, diameter = cell_frames(mesh)
        for cell in range(mesh.n_cells):
            rule = quad_cell(mesh.vertices[mesh.cells[cell]], 6)
            vals = legendre_values(rule.points, centroid[cell], diameter[cell], 2)
            d = vals @ (uh.v0[cell] - q.v0[cell])
            err2 += float(rule.weights @ d**2)
        worst = max(worst, math.sqrt(err2))
    ok = worst <= 1e-8
    _report(ok, f"criterion 6: quadratic patch solve, worst L2 gap {worst:.2e}")


def test_criterion_7_spd(study_tri_k2, study_tri_k3, study_poly_k2, study_poly_k3):
    mesh = build_triangular(2)
    dm = build_dof_map(mesh, 2)
    system = assemble(mesh, 2, 4, lambda p: np.zeros(len(p)), dm,
                      ops=element_operators(mesh, 2, 4))
    a = system.A.toarray()
    sym = float(np.abs(a - a.T).max())
    lam_min = float(np.linalg.eigvalsh(a).min())
    # the shared studies above completing without a solver error is the
    # large-scale SPD evidence; the dense eigencheck is the direct one
    completed = all(
        "error" not in report.metadata
        for report, _ in (study_tri_k2, study_tri_k3, study_poly_k2, study_poly_k3)
    )
    ok = lam_min > 0.0 and sym <= 1e-12 * np.abs(a).max() and completed
    _report(ok, f"criterion 7: stiffness SPD, min eigenvalue {lam_min:.3e}")


def test_criterion_8_norm_equivalence():
    # Random weak functions, drawn in L2-orthonormal bases on cells and
    # edges, so that the intervals do not depend on how v0 is represented:
    # v0 = R_k^-1 c on each cell, with R_k the leading dim P_k block of the
    # operator's QR factor, has L2(T) norm |c|.
    rng = np.random.default_rng(77)
    k = 2
    dk = dim_pk(k)
    intervals = []
    for n in (4, 8):
        mesh = build_triangular(n)
        dm = build_dof_map(mesh, k)
        ops = element_operators(mesh, k, k + 2)
        system = assemble(mesh, k, k + 2, lambda p: np.zeros(len(p)), dm, ops=ops)
        free = dm.pos >= 0
        ratios = []
        for _ in range(100):
            v = weak_function_from_free(dm, rng.standard_normal(dm.n_free))
            for op in ops:
                c = v.v0[op.stack.cells]
                r_k = op.r[op.stack.shapes[1], :dk, :dk]  # each cell's shape
                v.v0[op.stack.cells] = np.linalg.solve(r_k, c[..., None])[..., 0]
            x = np.empty(dm.n_free)
            x[dm.pos[free]] = v.flat()[free]
            energy = math.sqrt(max(float(x @ (system.A @ x)), 0.0))
            ratios.append(energy / error_2h(ZERO, v, mesh, k))
        intervals.append((min(ratios), max(ratios)))
    (lo4, hi4), (lo8, hi8) = intervals
    ok = (
        lo4 > 0.0 and lo8 > 0.0
        and max(lo4, lo8) / min(lo4, lo8) <= 2.0
        and max(hi4, hi8) / min(hi4, hi8) <= 2.0
    )
    _report(ok, "criterion 8: norm-equivalence ratio intervals "
                f"[{lo4:.3f}, {hi4:.3f}] vs [{lo8:.3f}, {hi8:.3f}]")


def test_criterion_9_deterministic_csv(tmp_path):
    outputs = []
    for i in range(2):
        path = tmp_path / f"run{i}.csv"
        code = main([
            "study", "--example", "1", "--mesh", "poly", "--k", "2",
            "--levels", "2,4,8", "--out", str(path),
        ])
        assert code == 0
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(ok, "criterion 9: repeated study runs emit byte-identical CSV")


def test_criterion_9_deterministic_csv_across_processes():
    # Two fresh interpreters with different hash seeds: no cache, set order
    # or dict order carried over from this process can make them agree.
    src = str(Path(sfwg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in "12":
        run = subprocess.run(
            [sys.executable, "-m", "sfwg.cli", "study", "--example", "1", "--mesh", "poly",
             "--k", "2", "--levels", "2,4,8"],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr.decode()
        outputs.append(run.stdout)
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(ok, "criterion 9: study CSV byte-identical across interpreters and hash seeds")
