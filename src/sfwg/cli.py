"""Command-line interface: convergence studies, single solves, mesh dumps.

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

    study = sub.add_parser("study", help="run a convergence study")
    study.add_argument("--example", type=int, choices=(1, 2), default=1)
    study.add_argument("--mesh", default="tri", help="tri, poly, or file:PATH[,PATH...]")
    study.add_argument("--k", type=int, default=2)
    study.add_argument("--j", type=int, default=None)
    study.add_argument("--levels", default="8,16,32,64",
                       help="comma-separated refinement levels")
    study.add_argument("--tol", type=float, default=1e-12)
    study.add_argument("--format", dest="fmt", choices=("csv", "markdown"),
                       default="csv")
    study.add_argument("--out", default=None, help="output path (default stdout)")

    single = sub.add_parser("solve", help="single solve, errors as key=value lines")
    single.add_argument("--example", type=int, choices=(1, 2), default=1)
    single.add_argument("--mesh", default="tri")
    single.add_argument("--n", type=int, default=8, help="refinement level")
    single.add_argument("--k", type=int, default=2)
    single.add_argument("--j", type=int, default=None)
    single.add_argument("--tol", type=float, default=1e-12)

    meshcmd = sub.add_parser("mesh", help="generate a mesh and dump the text format")
    meshcmd.add_argument("--family", choices=("tri", "poly"), default="tri")
    meshcmd.add_argument("--n", type=int, required=True)
    meshcmd.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def _cmd_study(args):
    family, files = _parse_mesh_flag(args.mesh)
    try:
        levels = [int(t) for t in args.levels.split(",") if t]
    except ValueError:
        raise ConfigError(f"bad --levels value {args.levels!r}") from None
    config = StudyConfig(
        example=args.example, family=family, mesh_files=files,
        k=args.k, j=args.j, levels=levels, tol=args.tol,
        fmt=args.fmt, out=args.out,
    )
    config.validate()
    report = run_study(config)
    if args.out is None:
        write_report(report, args.fmt, sys.stdout)
    if "error" in report.metadata:
        print(f"solver failure: {report.metadata['error']}", file=sys.stderr)
        return 3
    return 0


def _cmd_solve(args):
    family, files = _parse_mesh_flag(args.mesh)
    if len(files) > 1:
        raise ConfigError("solve takes a single mesh file")
    # A single solve is a study of one level.
    report = run_study(StudyConfig(
        example=args.example, family=family, mesh_files=files,
        k=args.k, j=args.j, levels=[args.n], tol=args.tol,
    ))
    if "error" in report.metadata:
        print(f"solver failure: {report.metadata['error']}", file=sys.stderr)
        return 3
    row = report.rows[0]
    print(f"n={args.n}")
    print(f"h={row['h']:.6e}")
    for key in ("err_triple", "err_2h", "err_l2"):
        print(f"{key}={row[key]:.6e}")
    return 0


def _cmd_mesh(args):
    if args.family == "tri":
        if args.n < 1:
            raise ConfigError("triangular mesh needs n >= 1")
        mesh = build_triangular(args.n)
    else:
        if args.n < 2:
            raise ConfigError("polygonal mesh needs n >= 2")
        mesh = build_polygonal(args.n)
    if args.out is None:
        dump_mesh(mesh, sys.stdout)
    else:
        with open(args.out, "w", newline="") as fh:
            dump_mesh(mesh, fh)
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
