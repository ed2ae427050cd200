import dataclasses
import io

import numpy as np
import pytest

import sfwg.study
import sfwg.system
from sfwg.cli import main
from sfwg.mesh import load_mesh
from sfwg.study import (
    ConfigError,
    StudyConfig,
    default_j,
    parse_provenance,
    run_study,
    report_to_string,
)
from sfwg.system import SolverError

CSV_HEADER = "n,h,err_triple,rate_triple,err_2h,rate_2h,err_l2,rate_l2"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_study_stdout_csv(capsys):
    code, out, err = run_cli(
        capsys, "study", "--example", "1", "--mesh", "tri",
        "--k", "2", "--levels", "2,4",
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("# ")]
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "2"
    assert first[3] == ""  # no rate on the first row
    second = lines[2].split(",")
    assert all(second[i] for i in (3, 5, 7))


def test_study_rates_recomputable_from_emitted_errors(capsys):
    code, out, _ = run_cli(
        capsys, "study", "--levels", "2,4", "--k", "2",
    )
    assert code == 0
    rows = [
        ln.split(",")
        for ln in out.splitlines()
        if "," in ln and not ln.startswith("#")
    ][1:]
    h = [float(r[1]) for r in rows]
    for ecol, rcol in ((2, 3), (4, 5), (6, 7)):
        e = [float(r[ecol]) for r in rows]
        rate = np.log(e[0] / e[1]) / np.log(h[0] / h[1])
        assert f"{rate:.4f}" == rows[1][rcol]


def test_study_deterministic_output(tmp_path):
    outs = []
    for i in range(2):
        path = tmp_path / f"r{i}.csv"
        code = main([
            "study", "--example", "1", "--mesh", "poly", "--k", "2",
            "--levels", "2,4", "--out", str(path),
        ])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_study_markdown(capsys):
    code, out, _ = run_cli(
        capsys, "study", "--levels", "2,4", "--format", "markdown",
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("|")]
    assert lines[0] == "| " + " | ".join(CSV_HEADER.split(",")) + " |"
    assert lines[1].startswith("|---")
    assert " - " in lines[2]  # missing first-row rates render as '-'


def test_provenance_header_roundtrip():
    config = StudyConfig(
        example=2, family="triangular", mesh_files=[], k=2, j=None,
        levels=[2, 4], tol=1e-12, fmt="csv", out=None,
    )
    config.validate()
    report = run_study(config)
    text = report_to_string(report)
    meta = parse_provenance(text)
    assert meta["example"] == "example2"
    assert meta["k"] == "2"
    assert meta["family"] == "triangular"
    assert int(meta["j"]) == default_j(2, "triangular") == 4


def test_solve_key_value_lines(capsys):
    code, out, _ = run_cli(capsys, "solve", "--example", "1", "--n", "4")
    assert code == 0
    kv = dict(ln.split("=", 1) for ln in out.splitlines())
    assert set(kv) == {"n", "h", "err_triple", "err_2h", "err_l2"}
    assert float(kv["err_l2"]) > 0.0


def test_mesh_subcommand_roundtrip(tmp_path, capsys):
    path = tmp_path / "m.txt"
    code = main(["mesh", "--family", "poly", "--n", "2", "--out", str(path)])
    assert code == 0
    with open(path) as fh:
        mesh = load_mesh(fh)
    assert mesh.n_cells > 0
    code, out, _ = run_cli(capsys, "mesh", "--family", "tri", "--n", "1")
    assert code == 0
    assert out.startswith("polymesh 1\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["study", "--k", "1", "--levels", "2,4"],
        ["study", "--k", "3", "--j", "3", "--levels", "2,4"],
        ["study", "--levels", "4,2"],
        ["study", "--levels", "abc"],
        ["study", "--mesh", "hex"],
        ["study", "--mesh", "file:"],
        ["solve", "--k", "1"],
        ["solve", "--tol", "0"],
        ["solve", "--mesh", "file:a.txt,b.txt"],
        ["mesh", "--family", "tri", "--n", "0"],
    ],
)
def test_config_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


def test_nonconvex_mesh_file_exits_2(tmp_path, capsys):
    # A CCW U-shaped octagon of area 7: the centroid fan of the cell
    # quadrature would integrate it to 9.357.
    path = tmp_path / "u.txt"
    path.write_text(
        "polymesh 1\nvertices 8\n0 0\n3 0\n3 3\n2 3\n2 1\n1 1\n1 3\n0 3\n"
        "cells 1\n0 1 2 3 4 5 6 7\n"
    )
    code, _, err = run_cli(capsys, "solve", "--mesh", f"file:{path}")
    assert code == 2
    assert "not convex" in err


@pytest.mark.parametrize("command", ["study", "solve"])
def test_missing_mesh_file_exits_2(command, tmp_path, capsys):
    code, _, err = run_cli(capsys, command, "--mesh", f"file:{tmp_path / 'none.txt'}")
    assert code == 2
    assert "mesh file not found" in err


def test_nan_source_exits_3(monkeypatch, capsys):
    nan = dataclasses.replace(sfwg.study.builtin_solution(1),
                              source=lambda p: np.full(len(p), np.nan))
    monkeypatch.setattr(sfwg.study, "builtin_solution", lambda sid: nan)
    code = main(["solve", "--n", "2"])
    assert code == 3
    assert "backward error nan" in capsys.readouterr().err


def test_solver_failure_exit_3(monkeypatch, capsys):
    def boom(system, tol=1e-12):
        raise SolverError("injected failure")

    monkeypatch.setattr(sfwg.system, "solve", boom)
    code = main(["solve", "--n", "2"])
    assert code == 3
    assert "solver failure" in capsys.readouterr().err


def test_study_solver_failure_exit_3(monkeypatch, capsys):
    calls = {"n": 0}
    real = sfwg.system.solve

    def flaky(system, tol=1e-12):
        calls["n"] += 1
        if calls["n"] > 1:
            raise SolverError("injected failure")
        return real(system, tol=tol)

    monkeypatch.setattr(sfwg.system, "solve", flaky)
    code = main(["study", "--levels", "2,4,8"])
    captured = capsys.readouterr()
    assert code == 3
    assert "solver failure" in captured.err
    # the successful level is still reported
    rows = [
        ln for ln in captured.out.splitlines()
        if "," in ln and not ln.startswith("#")
    ]
    assert len(rows) == 2  # header + one data row


def test_study_from_mesh_files(tmp_path, capsys):
    paths = []
    for n in (2, 4):
        p = tmp_path / f"tri{n}.txt"
        assert main(["mesh", "--family", "tri", "--n", str(n), "--out", str(p)]) == 0
        paths.append(str(p))
    code, out, _ = run_cli(
        capsys, "study", "--mesh", "file:" + ",".join(paths), "--k", "2",
    )
    assert code == 0
    rows = [ln for ln in out.splitlines() if "," in ln and not ln.startswith("#")]
    assert len(rows) == 3


def test_default_j():
    assert default_j(2, "triangular") == 4
    assert default_j(3, "triangular") == 5
    assert default_j(2, "polygonal") == 6
    assert default_j(3, "files") == 5


def test_study_config_validation():
    base = dict(example=1, family="triangular", mesh_files=[], j=None,
                tol=1e-12, fmt="csv", out=None)
    with pytest.raises(ConfigError):
        StudyConfig(k=1, levels=[2, 4], **base).validate()
    with pytest.raises(ConfigError):
        StudyConfig(k=2, levels=[], **base).validate()
    with pytest.raises(ConfigError):
        StudyConfig(k=2, levels=[4, 4], **base).validate()
    StudyConfig(k=2, levels=[2, 4], **base).validate()
