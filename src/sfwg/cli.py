"""Command-line interface: convergence studies, single solves, mesh dumps.

``study`` and ``solve`` (a study of one level) share their problem options
and one runner; ``study`` and ``mesh`` write to ``--out`` or to stdout.

Exit codes: 0 success, 2 configuration or mesh error, 3 solver failure.
"""

import argparse
import sys

from .basis import SingularCellError
from .mesh import MeshError, build_polygonal, build_triangular, dump_mesh
from .study import ConfigError, StudyConfig, run_study, write_report
from .system import SolverError


def _parse_mesh_flag(value):
    """--mesh {tri|poly|file:PATH,...} -> (family, mesh_files)."""
    if value == "tri":
        return "triangular", []
    if value == "poly":
        return "polygonal", []
    if value.startswith("file:"):
        paths = [p for p in value[5:].split(",") if p]
        if not paths:
            raise ConfigError("--mesh file: needs at least one path")
        return "files", paths
    raise ConfigError(f"--mesh must be tri, poly, or file:PATH[,PATH...], got {value!r}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sfwg",
        description="Stabilizer-free weak Galerkin solver for the clamped "
        "biharmonic problem on the unit square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--example", type=int, choices=(1, 2), default=1)
    problem.add_argument("--mesh", default="tri", help="tri, poly, or file:PATH[,PATH...]")
    problem.add_argument("--k", type=int, default=2)
    problem.add_argument("--j", type=int, default=None)
    problem.add_argument("--tol", type=float, default=1e-12)

    study = sub.add_parser("study", parents=[problem], help="run a convergence study")
    study.add_argument("--levels", default="8,16,32,64",
                       help="comma-separated refinement levels")
    study.add_argument("--format", dest="fmt", choices=("csv", "markdown"),
                       default="csv")
    study.add_argument("--out", default=None, help="output path (default stdout)")

    single = sub.add_parser("solve", parents=[problem],
                            help="single solve, errors as key=value lines")
    single.add_argument("--n", type=int, default=8, help="refinement level")

    meshcmd = sub.add_parser("mesh", help="generate a mesh and dump the text format")
    meshcmd.add_argument("--family", choices=("tri", "poly"), default="tri")
    meshcmd.add_argument("--n", type=int, required=True)
    meshcmd.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _emit(path, write):
    """Call ``write`` on the file at ``path``, or on stdout when it is None."""
    if path is None:
        write(sys.stdout)
    else:
        with open(path, "w", newline="") as fh:
            write(fh)


def _run(args, levels, write):
    """Run the study that ``args`` describe at ``levels`` and pass its
    report, complete or cut at a solver failure, to ``write``."""
    family, files = _parse_mesh_flag(args.mesh)
    if args.command == "solve" and len(files) > 1:
        raise ConfigError("solve takes a single mesh file")
    report = run_study(StudyConfig(
        example=args.example, family=family, mesh_files=files,
        k=args.k, j=args.j, levels=levels, tol=args.tol,
    ))
    write(report)
    if "error" in report.metadata:
        print(f"solver failure: {report.metadata['error']}", file=sys.stderr)
        return 3
    return 0


def _cmd_study(args):
    try:
        levels = [int(t) for t in args.levels.split(",") if t]
    except ValueError:
        raise ConfigError(f"bad --levels value {args.levels!r}") from None
    return _run(args, levels, lambda report: _emit(
        args.out, lambda fh: write_report(report, args.fmt, fh)))


def _cmd_solve(args):
    def print_rows(report):  # none after a solver failure
        for row in report.rows:
            print(f"n={row['n']}")
            print(f"h={row['h']:.6e}")
            for key in ("err_triple", "err_2h", "err_l2"):
                print(f"{key}={row[key]:.6e}")
    return _run(args, [args.n], print_rows)


def _cmd_mesh(args):
    mesh = (build_triangular if args.family == "tri" else build_polygonal)(args.n)
    _emit(args.out, lambda fh: dump_mesh(mesh, fh))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"study": _cmd_study, "solve": _cmd_solve, "mesh": _cmd_mesh}
    try:
        return handlers[args.command](args)
    except (ConfigError, MeshError, SingularCellError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
