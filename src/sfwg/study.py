"""Configuration-driven convergence studies and table emission."""

import io
import math
import os
from dataclasses import dataclass, field

from . import __version__
from .errors import ConvergenceReport, error_2h, error_l2, error_triple
from .mesh import build_polygonal, build_triangular, load_mesh
from .solutions import builtin_solution
from .system import SolverError, solve_biharmonic
from .weakop import element_operators

FAMILIES = ("triangular", "polygonal", "files")


class ConfigError(ValueError):
    pass


def default_j(k: int, family: str) -> int:
    return k + 4 if family == "polygonal" else k + 2


@dataclass
class StudyConfig:
    example: int = 1                 # built-in solution id, or use ``solution``
    solution: object = None          # an ExactSolution overriding ``example``
    family: str = "triangular"
    mesh_files: list = field(default_factory=list)
    k: int = 2
    j: int | None = None
    levels: list = field(default_factory=lambda: [8, 16, 32, 64])
    tol: float = 1e-12
    fmt: str = "csv"
    out: str | None = None

    def effective_j(self):
        return self.j if self.j is not None else default_j(self.k, self.family)

    def validate(self):
        if self.solution is None and self.example not in (1, 2):
            raise ConfigError(f"example must be 1 or 2, got {self.example}")
        if self.family not in FAMILIES:
            raise ConfigError(f"mesh family must be one of {FAMILIES}")
        if self.k < 2:
            raise ConfigError("k must be >= 2 (the scheme needs lap v0 and P_{k-1}(e))")
        if self.effective_j() <= self.k:
            raise ConfigError(f"j must exceed k, got j={self.effective_j()} k={self.k}")
        if self.family == "files":
            if not self.mesh_files:
                raise ConfigError("mesh family 'files' needs at least one mesh file")
            for path in self.mesh_files:
                if not os.path.isfile(path):
                    raise ConfigError(f"mesh file not found: {path}")
        else:
            if not self.levels:
                raise ConfigError("levels must be non-empty")
            if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
                raise ConfigError("levels must be strictly increasing")
            if self.family == "triangular" and min(self.levels) < 1:
                raise ConfigError("triangular levels must be >= 1")
            if self.family == "polygonal" and min(self.levels) < 2:
                raise ConfigError("polygonal levels must be >= 2")
        if self.fmt not in ("csv", "markdown"):
            raise ConfigError(f"output format must be csv or markdown, got {self.fmt}")
        if not (self.tol > 0.0):
            raise ConfigError("solver tolerance must be positive")


def _meshes(config: StudyConfig):
    if config.family == "triangular":
        for n in config.levels:
            yield n, build_triangular(n)
    elif config.family == "polygonal":
        for n in config.levels:
            yield n, build_polygonal(n)
    else:
        for i, path in enumerate(config.mesh_files, start=1):
            with open(path) as fh:
                yield i, load_mesh(fh)


def run_study(config: StudyConfig) -> ConvergenceReport:
    """Solve at every refinement level and tabulate errors and rates.

    On a solver failure the report is truncated at the failing level and the
    error message recorded in the metadata.
    """
    config.validate()
    exact = config.solution if config.solution is not None else builtin_solution(config.example)
    k, j = config.k, config.effective_j()

    report = ConvergenceReport(
        metadata={
            "example": exact.name,
            "family": config.family,
            "k": k,
            "j": j,
            "levels": ",".join(str(n) for n in config.levels)
            if config.family != "files"
            else ",".join(config.mesh_files),
            "tol": repr(config.tol),
            "version": f"sfwg-{__version__}",
        }
    )
    for n, mesh in _meshes(config):
        ops = element_operators(mesh, k, j)
        try:
            u_h = solve_biharmonic(
                mesh, k, j, exact.source,
                boundary=(exact.u, exact.grad), tol=config.tol, ops=ops,
            )
        except SolverError as exc:
            report.metadata["error"] = f"level n={n}: {exc}"
            break
        errs = (
            error_triple(exact, u_h, mesh, k, j, ops=ops),
            error_2h(exact, u_h, mesh, k),
            error_l2(exact, u_h, mesh),
        )
        report.add_row(n, mesh.h, errs)

    if config.out is not None:
        with open(config.out, "w", newline="") as fh:
            write_report(report, config.fmt, fh)
    return report


_COLUMNS = ("n", "h", "err_triple", "rate_triple", "err_2h", "rate_2h",
            "err_l2", "rate_l2")


def _formatted_rows(report):
    """Format rows so that rates are recomputable from the emitted errors."""
    out = []
    prev = None
    for row in report.rows:
        fmt = {
            "n": str(row["n"]),
            "h": f"{row['h']:.6e}",
            "err_triple": f"{row['err_triple']:.6e}",
            "err_2h": f"{row['err_2h']:.6e}",
            "err_l2": f"{row['err_l2']:.6e}",
        }
        for key in ("triple", "2h", "l2"):
            if prev is None:
                fmt[f"rate_{key}"] = ""
                continue
            e0, e1 = float(prev[f"err_{key}"]), float(fmt[f"err_{key}"])
            h0, h1 = float(prev["h"]), float(fmt["h"])
            if e0 <= 0.0 or e1 <= 0.0:
                fmt[f"rate_{key}"] = ""
            else:
                fmt[f"rate_{key}"] = f"{math.log(e0 / e1) / math.log(h0 / h1):.4f}"
        out.append(fmt)
        prev = fmt
    return out


def write_report(report: ConvergenceReport, fmt: str, stream):
    for key, value in report.metadata.items():
        stream.write(f"# {key}={value}\n")
    rows = _formatted_rows(report)
    if fmt == "csv":
        stream.write(",".join(_COLUMNS) + "\n")
        for row in rows:
            stream.write(",".join(row[c] for c in _COLUMNS) + "\n")
    elif fmt == "markdown":
        stream.write("| " + " | ".join(_COLUMNS) + " |\n")
        stream.write("|" + "---|" * len(_COLUMNS) + "\n")
        for row in rows:
            stream.write("| " + " | ".join(row[c] or "-" for c in _COLUMNS) + " |\n")
    else:
        raise ConfigError(f"unknown output format {fmt!r}")


def report_to_string(report: ConvergenceReport, fmt: str = "csv") -> str:
    buf = io.StringIO()
    write_report(report, fmt, buf)
    return buf.getvalue()


def parse_provenance(text: str) -> dict:
    """Recover the metadata header from an emitted table."""
    meta = {}
    for line in text.splitlines():
        if not line.startswith("# "):
            break
        key, _, value = line[2:].partition("=")
        meta[key] = value
    return meta
