"""Configuration-driven convergence studies: ``run_study`` computes a
ConvergenceReport and ``write_report`` formats it on a stream."""

import os
from dataclasses import dataclass, field

from . import __version__
from .errors import ConvergenceReport, convergence_rates, error_2h, error_l2, error_triple
from .mesh import build_polygonal, build_triangular, load_mesh
from .solutions import builtin_solution
from .system import SolverError, solve_biharmonic
from .weakop import element_operators

FAMILIES = ("triangular", "polygonal", "files")


class ConfigError(ValueError):
    pass


def default_j(k: int, family: str) -> int:
    """The default j of a generated mesh family: k+2 on triangles, k+4 on
    the honeycomb.  A files study takes its family from its cells."""
    if family not in ("triangular", "polygonal"):
        raise ValueError(f"no default j for mesh family {family!r}")
    return k + 4 if family == "polygonal" else k + 2


@dataclass
class StudyConfig:
    example: int = 1                 # built-in solution id
    family: str = "triangular"
    mesh_files: list = field(default_factory=list)
    k: int = 2
    j: int | None = None
    levels: list = field(default_factory=lambda: [8, 16, 32, 64])
    tol: float = 1e-12

    def effective_j(self):
        """j, or the family's default, as ``_j`` picks it."""
        return self._j(_meshes(self))

    def _j(self, meshes):
        """j, or the default for the family; a files study is triangular
        when every cell of every mesh of ``meshes`` is a triangle."""
        if self.j is not None:
            return self.j
        family = self.family
        if family == "files":
            triangles = all(s.polygons.shape[1] == 3 for _, m in meshes for s in m.stacks)
            family = "triangular" if triangles else "polygonal"
        return default_j(self.k, family)

    def validate(self):
        if self.example not in (1, 2):
            raise ConfigError(f"example must be 1 or 2, got {self.example}")
        if self.family not in FAMILIES:
            raise ConfigError(f"mesh family must be one of {FAMILIES}")
        if self.k < 2:
            raise ConfigError("k must be >= 2 (the scheme needs lap v0 and P_{k-1}(e))")
        if self.j is not None and self.j < self.k + 2:  # every default j is >= k+2
            raise ConfigError(f"j must be at least k+2, got j={self.j} k={self.k}")
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
        if not (self.tol > 0.0):
            raise ConfigError("solver tolerance must be positive")


def _meshes(config: StudyConfig):
    if config.family == "files":
        for i, path in enumerate(config.mesh_files, start=1):
            with open(path) as fh:
                yield i, load_mesh(fh)
    else:
        build = build_triangular if config.family == "triangular" else build_polygonal
        for n in config.levels:
            yield n, build(n)


def run_study(config: StudyConfig) -> ConvergenceReport:
    """Solve at every refinement level and tabulate errors and rates.

    On a solver failure the report is truncated at the failing level and the
    error message recorded in the metadata.
    """
    config.validate()
    exact = builtin_solution(config.example)
    # Files are loaded once, to pick j and to solve; levels are built in turn.
    meshes = list(_meshes(config)) if config.family == "files" else _meshes(config)
    k, j = config.k, config._j(meshes)

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
    for n, mesh in meshes:
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
    return report


_COLUMNS = ("n", "h", "err_triple", "rate_triple", "err_2h", "rate_2h",
            "err_l2", "rate_l2")


def _formatted_rows(report):
    """Format rows so that rates are recomputable from the emitted errors."""
    out = []
    for row in report.rows:
        fmt = {"n": str(row["n"])}
        fmt.update((c, f"{row[c]:.6e}") for c in ("h", "err_triple", "err_2h", "err_l2"))
        for key in ("triple", "2h", "l2"):
            rate = None if not out else convergence_rates(
                [float(r[f"err_{key}"]) for r in (out[-1], fmt)],
                [float(r["h"]) for r in (out[-1], fmt)])[0]
            fmt[f"rate_{key}"] = "" if rate is None else f"{rate:.4f}"
        out.append(fmt)
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
