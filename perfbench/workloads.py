"""The benchmark's workloads: what one round runs, untraced and traced, and
the checks that its outputs must pass.

An untraced round makes the calls a user makes (``run_study``, or
``load_mesh`` then ``solve_biharmonic`` and the three error functionals).
A traced round makes the public calls those make, in the same order, with
``solve_biharmonic`` expanded into its four steps, and records a span around
each.  Both emit a table of the computed errors at full precision, so equal
tables show that the traced round measured the same computation.
"""

import inspect
import io
import math
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from sfwg import (
    ConvergenceReport,
    StudyConfig,
    assemble,
    build_dof_map,
    build_polygonal,
    build_triangular,
    builtin_solution,
    element_operators,
    error_2h,
    error_l2,
    error_triple,
    load_mesh,
    run_study,
    solve,
    solve_biharmonic,
    validate,
)
from sfwg.mesh import cell_stacks
from sfwg.system import SolverError, weak_function_from_free

import inputs

# Largest error, as a share of ||u||, that still counts as reproducing a
# polynomial of degree k.  Float64 noise reached 2.1e-9 of ||u|| on seeds
# 201 to 210 of the sweep.  A polynomial of degree k + 1 on the sweep's
# meshes gave errors of at least 5e-4 (|||.||| and 2h) and 5.4e-7 (L2, on
# triangles with n = 8 and k = 3).
REPRODUCTION_FRACTION = 1e-7

# The tolerance that the sweep's ``solve_biharmonic`` calls use: its default.
SOLVER_TOL = inspect.signature(solve_biharmonic).parameters["tol"].default


@dataclass
class Round:
    """What one pass over a workload's operations produced."""

    table: list          # one line per operation, errors at full precision
    latencies: dict      # seconds per completed operation, by its key
    wall: float          # seconds for the whole round
    attempted: int
    failed: int
    violations: list     # failed correctness checks, one string each


def table_line(*fields):
    return " ".join(repr(f) if isinstance(f, float) else str(f) for f in fields)


def observed_rates(rows):
    """Rates of the last row against the one before: rows are
    (n, h, err_triple, err_2h, err_l2)."""
    (_, h0, *e0), (_, h1, *e1) = rows[-2], rows[-1]
    return [math.log(a / b) / math.log(h0 / h1) for a, b in zip(e0, e1)]


def check_rates(rows, expected, tol):
    """Violations of |final rate - expected| <= tol, one string each."""
    rates = observed_rates(rows)
    return [
        f"final {name} rate {r:.4f}, expected {e} +- {tol}"
        for name, r, e in zip(("triple", "2h", "l2"), rates, expected)
        if not abs(r - e) <= tol
    ]


def check_reproduction(errors, norm_u):
    """Violations of error <= REPRODUCTION_FRACTION * ||u||, one string each."""
    return [
        f"{name} error {e:.3e} exceeds {REPRODUCTION_FRACTION:g} of ||u|| = {norm_u:.3e}"
        for name, e in zip(("triple", "2h", "l2"), errors)
        if not e <= REPRODUCTION_FRACTION * norm_u
    ]


def _traced_solve(tracer, mesh, k, j, exact, tol, ops):
    """``solve_biharmonic`` as its four public steps, then the three errors."""
    dofmap = tracer.call("system.dof_map", build_dof_map, mesh, k,
                         g_d=exact.u, g_n=exact.grad)
    with tracer.span("system.assemble") as span:
        system = assemble(mesh, k, j, exact.source, dofmap, ops=ops)
    span["n_free"], span["nnz"] = dofmap.n_free, int(system.A.nnz)
    tracer.count("system.n_free", dofmap.n_free)
    tracer.count("system.nnz", int(system.A.nnz))
    x = tracer.call("system.solve", solve, system, tol=tol)
    u_h = tracer.call("system.expand", weak_function_from_free, dofmap, x)
    return (
        tracer.call("errors.triple", error_triple, exact, u_h, mesh, k, j, ops=ops),
        tracer.call("errors.2h", error_2h, exact, u_h, mesh, k),
        tracer.call("errors.l2", error_l2, exact, u_h, mesh),
    )


def _traced_mesh(tracer, build, *args):
    with tracer.span("mesh.build") as span:
        mesh = build(*args)
    span["cells"] = mesh.n_cells
    tracer.count("mesh.cells", mesh.n_cells)
    tracer.call("mesh.stacks", cell_stacks, mesh)
    return mesh


class Study:
    """A convergence study of example 1 through ``run_study``.

    Its inputs do not depend on the seed.  One operation is one level; the
    latency of a round is that of its ``run_study`` call.
    """

    def __init__(self, family, k, levels, expected, tol):
        self.family, self.k, self.levels = family, k, levels
        self.expected, self.tol = expected, tol

    def config(self, levels):
        return StudyConfig(example=1, family=self.family, k=self.k, levels=list(levels))

    def warmup(self):
        run_study(self.config(self.levels[:1]))

    def prepare(self, seed):
        return None

    def run(self, _inputs, tracer=None):
        config = self.config(self.levels)
        t0 = time.perf_counter()
        report = run_study(config) if tracer is None else self._traced(config, tracer)
        wall = time.perf_counter() - t0
        if "error" in report.metadata:
            print(f"study stopped: {report.metadata['error']}", file=sys.stderr)
        rows = [(r["n"], r["h"], r["err_triple"], r["err_2h"], r["err_l2"])
                for r in report.rows]
        missed = self.levels[len(rows):]
        if missed:
            violations = [f"level n={n} not reached" for n in missed]
        else:
            violations = check_rates(rows, self.expected, self.tol)
        return Round(
            table=[table_line(*row) for row in rows],
            latencies={0: wall},
            wall=wall,
            attempted=len(self.levels),
            failed=len(missed),
            violations=violations,
        )

    def _traced(self, config, tracer):
        """The calls ``run_study`` makes, in its order."""
        config.validate()
        exact = builtin_solution(config.example)
        k, j = config.k, config.effective_j()
        build = build_triangular if config.family == "triangular" else build_polygonal
        report = ConvergenceReport()
        for n in config.levels:
            with tracer.span("level", n=n):
                mesh = _traced_mesh(tracer, build, n)
                ops = tracer.call_with_peak("weakop.operators", element_operators,
                                            mesh, k, j)
                try:
                    errs = _traced_solve(tracer, mesh, k, j, exact, config.tol, ops)
                except SolverError as exc:
                    report.metadata["error"] = f"level n={n}: {exc}"
                    break
            report.add_row(n, mesh.h, errs)
        return report


def sweep_errors(p, u_h, mesh, ops):
    """The three error functionals of a sweep solution."""
    return (error_triple(p.exact, u_h, mesh, p.k, p.j, ops=ops),
            error_2h(p.exact, u_h, mesh, p.k),
            error_l2(p.exact, u_h, mesh))


class Sweep:
    """Independent solves on seeded perturbed meshes read from text.

    One operation is one solve, timed from the mesh text to the three
    error functionals.
    """

    def warmup(self):
        problem = inputs.make_problem(0, *inputs.SWEEP_CASES[0],
                                      np.random.default_rng(0))
        self._solve(problem)

    def prepare(self, seed):
        return inputs.sweep_problems(seed)

    @staticmethod
    def _solve(p):
        mesh = load_mesh(io.StringIO(p.mesh_text))
        ops = element_operators(mesh, p.k, p.j)
        u_h = solve_biharmonic(mesh, p.k, p.j, p.exact.source,
                               boundary=(p.exact.u, p.exact.grad), ops=ops)
        return mesh, sweep_errors(p, u_h, mesh, ops)

    @staticmethod
    def _traced_solve(p, tracer):
        with tracer.span("solve", index=p.index, family=p.family, n=p.n, k=p.k):
            mesh = _traced_mesh(tracer, load_mesh, io.StringIO(p.mesh_text))
            ops = tracer.call_with_peak("weakop.operators", element_operators,
                                        mesh, p.k, p.j)
            errs = _traced_solve(tracer, mesh, p.k, p.j, p.exact, SOLVER_TOL, ops)
        return mesh, errs

    def run(self, problems, tracer=None):
        table, latencies, solved, violations = [], {}, [], []
        t0 = time.perf_counter()
        for p in problems:
            t = time.perf_counter()
            try:
                mesh, errs = self._solve(p) if tracer is None else self._traced_solve(p, tracer)
            except Exception as exc:  # one failed solve must not end the sweep
                traceback.print_exc(file=sys.stderr)
                violations.append(f"solve {p.index} raised {type(exc).__name__}: {exc}")
                table.append(table_line(p.index, "failed"))
                continue
            latencies[p.index] = time.perf_counter() - t
            table.append(table_line(p.index, p.family, p.n, p.k, *errs))
            solved.append((p, mesh, errs))
        wall = time.perf_counter() - t0
        failed = len(problems) - len(solved)
        for p, mesh, errs in solved:
            violations += [f"solve {p.index}: mesh {v}" for v in validate(mesh)]
            violations += [f"solve {p.index}: {v}"
                           for v in check_reproduction(errs, p.norm_u)]
        return Round(table=table, latencies=latencies, wall=wall,
                     attempted=len(problems), failed=failed, violations=violations)


WORKLOADS = {
    "tri-k2-study": Study("triangular", 2, (8, 16, 32, 64), expected=(1, 1, 2), tol=0.15),
    "poly-k3-study": Study("polygonal", 3, (4, 8, 16, 32), expected=(2, 2, 4), tol=0.2),
    "perturbed-sweep": Sweep(),
}
