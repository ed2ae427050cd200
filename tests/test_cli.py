import dataclasses
import io

import numpy as np
import pytest

import sfwg.cli
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
    write_report,
)
from sfwg.system import SolverError

CSV_HEADER = "n,h,err_triple,rate_triple,err_2h,rate_2h,err_l2,rate_l2"


def report_to_string(report, fmt="csv"):
    buf = io.StringIO()
    write_report(report, fmt, buf)
    return buf.getvalue()


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
        levels=[2, 4], tol=1e-12,
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


def test_solve_on_a_mesh_file_prints_its_row_n(tmp_path, capsys):
    # A file is level 1, as in the study table, whatever --n says.
    path = tmp_path / "tri2.txt"
    assert main(["mesh", "--family", "tri", "--n", "2", "--out", str(path)]) == 0
    code, out, _ = run_cli(capsys, "solve", "--mesh", f"file:{path}")
    assert code == 0
    assert out.splitlines()[0] == "n=1"
    code, out, _ = run_cli(capsys, "solve", "--n", "2")
    assert code == 0
    assert out.splitlines()[0] == "n=2"


@pytest.mark.parametrize("family,n,message", [
    ("tri", "0", "error: n must be >= 1"),
    ("poly", "1", "error: n must be >= 2"),
])
def test_mesh_bad_n_exits_2(family, n, message, tmp_path, capsys):
    out = tmp_path / "m.txt"
    code, _, err = run_cli(capsys, "mesh", "--family", family, "--n", n, "--out", str(out))
    assert code == 2
    assert err.strip() == message
    assert not out.exists()


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


def test_folded_mesh_file_exits_2(tmp_path, capsys):
    # Cells 0 and 2 both run edge (0, 1) from vertex 0 to 1, so cell 2
    # overlaps cell 0 instead of lying across the edge from it.
    path = tmp_path / "folded.txt"
    path.write_text(
        "polymesh 1\nvertices 5\n0 0\n1 0\n1 1\n0 1\n0.5 0.25\n"
        "cells 3\n0 1 2\n2 3 0\n0 1 4\n"
    )
    code, out, err = run_cli(capsys, "solve", "--mesh", f"file:{path}")
    assert code == 2
    assert out == ""
    assert "cells 0 and 2 run their shared edge (0, 1) in the same direction" in err


@pytest.mark.parametrize("vertices,message", [
    # A convex sliver: valid as a mesh, but its P_j basis is rank deficient.
    ("0 0\n1 0\n0.5 1e-9\n", "P_4 basis of cell 0 is rank deficient"),
    ("nan 0\n1 0\n0 1\n", "line 3: non-finite coordinate"),
], ids=["sliver", "nan"])
def test_unusable_mesh_file_exits_2(vertices, message, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(f"polymesh 1\nvertices 3\n{vertices}cells 1\n0 1 2\n")
    code, _, err = run_cli(capsys, "solve", "--mesh", f"file:{path}")
    assert code == 2
    assert message in err


@pytest.mark.parametrize("command", ["study", "solve"])
def test_missing_mesh_file_exits_2(command, tmp_path, capsys):
    code, _, err = run_cli(capsys, command, "--mesh", f"file:{tmp_path / 'none.txt'}")
    assert code == 2
    assert "mesh file not found" in err


@pytest.mark.parametrize("command", [["study", "--levels", "2"], ["mesh", "--n", "2"]])
def test_unwritable_out_exits_2_before_any_work(command, tmp_path, monkeypatch, capsys):
    def refuse(config):
        raise AssertionError("the study ran before --out was checked")

    monkeypatch.setattr(sfwg.cli, "run_study", refuse)
    out = tmp_path / "missing" / "x.csv"
    code, stdout, err = run_cli(capsys, *command, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: [Errno 2] No such file or directory")
    assert not out.parent.exists()


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
    assert parse_provenance(out)["j"] == "4"

    # Honeycomb files get the polygonal j, and the rows of the generated
    # levels: the same vertices and cells give the same mesh.
    paths = []
    for n in (2, 4, 8):
        p = tmp_path / f"poly{n}.txt"
        assert main(["mesh", "--family", "poly", "--n", str(n), "--out", str(p)]) == 0
        paths.append(str(p))
    tables = [run_cli(capsys, "study", "--mesh", mesh, "--k", "2", "--levels", "2,4,8")[1]
              for mesh in ("file:" + ",".join(paths), "poly")]
    assert [parse_provenance(t)["j"] for t in tables] == ["6", "6"]
    files, generated = ([ln.split(",")[1:] for ln in t.splitlines()[-3:]] for t in tables)
    assert files == generated


def test_study_loads_each_mesh_file_once(tmp_path, monkeypatch, capsys):
    paths = []
    for n in (2, 4):
        p = tmp_path / f"tri{n}.txt"
        assert main(["mesh", "--family", "tri", "--n", str(n), "--out", str(p)]) == 0
        paths.append(str(p))
    loaded = []

    def counting_load_mesh(fh):
        loaded.append(fh.name)
        return load_mesh(fh)

    monkeypatch.setattr(sfwg.study, "load_mesh", counting_load_mesh)
    code, out, _ = run_cli(capsys, "study", "--mesh", "file:" + ",".join(paths), "--k", "2")
    assert code == 0
    assert loaded == paths
    assert parse_provenance(out)["j"] == "4"


def test_study_of_equal_mesh_sizes_prints_empty_rates(tmp_path, capsys):
    # Two files of one mesh: the second row has no defined rate.
    p = tmp_path / "t4.txt"
    assert main(["mesh", "--family", "tri", "--n", "4", "--out", str(p)]) == 0
    code, out, _ = run_cli(capsys, "study", "--mesh", f"file:{p},{p}", "--k", "2")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines() if "," in ln and not ln.startswith("#")]
    assert len(rows) == 3  # header + two data rows
    assert rows[1][1:] == rows[2][1:]
    assert [rows[2][i] for i in (3, 5, 7)] == ["", "", ""]


def test_default_j():
    assert default_j(2, "triangular") == 4
    assert default_j(3, "triangular") == 5
    assert default_j(2, "polygonal") == 6
    with pytest.raises(ValueError):
        default_j(3, "files")


def test_study_config_validation():
    base = dict(example=1, family="triangular", mesh_files=[], j=None, tol=1e-12)
    with pytest.raises(ConfigError):
        StudyConfig(k=1, levels=[2, 4], **base).validate()
    with pytest.raises(ConfigError):
        StudyConfig(k=2, levels=[], **base).validate()
    with pytest.raises(ConfigError):
        StudyConfig(k=2, levels=[4, 4], **base).validate()
    StudyConfig(k=2, levels=[2, 4], **base).validate()
