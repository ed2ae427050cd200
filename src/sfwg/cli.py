"""Command-line interface: convergence studies, single solves, mesh dumps.

``study`` and ``solve`` (a study of one level) share their problem options
and one runner; ``study`` and ``mesh`` write to ``--out`` or to stdout.

Exit codes: 0 success, 2 configuration, mesh or file error, 3 solver failure.
"""

import argparse
import contextlib
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


def _output(path):
    """stdout, or the file at ``path`` opened for writing, as a context."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")


def _run(args, levels, write, out=None):
    """Run the study that ``args`` describe at ``levels`` and pass its
    report, complete or cut at a solver failure, to ``write`` with the
    output stream, which is opened before the study runs."""
    family, files = _parse_mesh_flag(args.mesh)
    if args.command == "solve" and len(files) > 1:
        raise ConfigError("solve takes a single mesh file")
    config = StudyConfig(example=args.example, family=family, mesh_files=files,
                         k=args.k, j=args.j, levels=levels, tol=args.tol)
    config.validate()
    with _output(out) as fh:
        report = run_study(config)
        write(report, fh)
    if "error" in report.metadata:
        print(f"solver failure: {report.metadata['error']}", file=sys.stderr)
        return 3
    return 0


def _cmd_study(args):
    try:
        levels = [int(t) for t in args.levels.split(",") if t]
    except ValueError:
        raise ConfigError(f"bad --levels value {args.levels!r}") from None
    return _run(args, levels, lambda report, fh: write_report(report, args.fmt, fh), args.out)


def _cmd_solve(args):
    def print_rows(report, fh):  # none after a solver failure
        for row in report.rows:
            print(f"n={row['n']}", file=fh)
            print(f"h={row['h']:.6e}", file=fh)
            for key in ("err_triple", "err_2h", "err_l2"):
                print(f"{key}={row[key]:.6e}", file=fh)
    return _run(args, [args.n], print_rows)


def _cmd_mesh(args):
    mesh = (build_triangular if args.family == "tri" else build_polygonal)(args.n)
    with _output(args.out) as fh:
        dump_mesh(mesh, fh)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"study": _cmd_study, "solve": _cmd_solve, "mesh": _cmd_mesh}
    try:
        return handlers[args.command](args)
    except (ConfigError, MeshError, SingularCellError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
