import os
import warnings

import numpy as np
import pytest

from ventcelfem import cli, solver
from ventcelfem.solver import SingularSystemError


def read_diagnostics(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition("=")
            out[key.strip()] = float(value)
    return out


def read_solution(path):
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "x,y,u"
    return np.array([[float(c) for c in r.split(",")] for r in rows[1:]])


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)


# ----------------------------------------------------------------------
# configuration handling


def test_info_echo_round_trip(tmp_path, capsys):
    argv = ["info", "--domain", "square", "--n", "4", "--a2", "poly:3,1",
            "--a0", "const:1", "--seed", "7"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    echo = [l for l in first.splitlines() if not l.startswith("#")]
    assert "domain = square" in echo
    assert "a2 = poly:3,1" in echo
    assert "n = 4" in echo

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("\n".join(echo) + "\n")
    assert cli.main(["info", "--config", str(cfg_path)]) == 0
    second = capsys.readouterr().out
    second_echo = [l for l in second.splitlines() if not l.startswith("#")]
    assert second_echo == echo


def test_flag_overrides_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("domain = square\nn = 4   # comment\n")
    assert cli.main(["info", "--config", str(cfg_path), "--n", "6"]) == 0
    echo = capsys.readouterr().out
    assert "n = 6" in echo.splitlines()
    assert "domain = square" in echo.splitlines()


def test_output_dir_precedence(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(env_dir))
    assert cli.main(["mesh", "--domain", "square", "--n", "2"]) == 0
    assert (env_dir / "mesh.txt").exists()

    assert cli.main(["mesh", "--domain", "square", "--n", "2",
                     "--output-dir", str(flag_dir)]) == 0
    assert (flag_dir / "mesh.txt").exists()
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["solve", "--domain", "hexagon", "--n", "2"],
    ["solve", "--n", "1"],
    ["info", "--exact", "mystery"],
    ["solve", "--domain", "square", "--n", "2", "--a2", "mystery"],
    ["solve", "--domain", "square", "--n", "2", "--a2", "const:-1"],
    ["convergence", "--domain", "square", "--n", "4", "--levels", "2"],
])
def test_bad_configuration_exits_2(argv, capsys, tmp_path):
    assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


@pytest.mark.parametrize("key, value", [
    ("phi", "const:nan"), ("phi", "const:inf"),
    ("a2", "const:nan"), ("a2", "poly:nan"), ("a2", "const:inf"),
    ("a0", "const:nan"), ("a0", "const:-inf"),
    ("f1", "const:nan"), ("f2x", "const:inf"), ("f2y", "poly:0,nan"),
    ("g1", "const:-inf"), ("g2", "const:nan"),
])
def test_non_finite_data_exits_2(key, value, capsys, tmp_path):
    rc = cli.main(["solve", "--domain", "square", "--n", "4",
                   f"--{key}", value, "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"configuration error: {key}: " in err
    assert "finite" in err
    assert not (tmp_path / "solution.csv").exists()


# every node of the n = 2 square, once
NODAL_ROWS = "node,value\n" + "".join(f"{i},1.0\n" for i in range(9))
MALFORMED_NODAL = {
    "missing": None, "directory": None,
    "short_row": "node,value\n0\n",
    "past_count": NODAL_ROWS + "9,1.0\n",
    "negative": "node,value\n-1,2.0\n",
    "duplicate": NODAL_ROWS + "3,2.0\n",
    "bad_number": "node,value\n0,abc\n",
    "non_finite": "node,value\n0,inf\n",
}


@pytest.mark.parametrize("name", MALFORMED_NODAL)
def test_malformed_nodal_file_exits_2(name, capsys, tmp_path):
    text = MALFORMED_NODAL[name]
    path = tmp_path / f"{name}.csv"
    if name == "directory":
        path.mkdir()
    elif text is not None:
        path.write_text(text)
    rc = cli.main(["solve", "--domain", "square", "--n", "2",
                   "--a2", f"nodal:{path}", "--output-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"configuration error: a2: nodal csv {path}" in err
    if text is not None:
        assert f"{path}:{len(text.splitlines())}: " in err
    assert not (tmp_path / "solution.csv").exists()


def test_wall_data_singular_at_a_wall_point_exits_2_without_warning(
        capsys, tmp_path):
    # log_radial is -inf at the origin, a wall point of the cable domain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["solve", "--domain", "cable", "--n", "4",
                       "--phi", "log_radial", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "phi: wall data must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, rc, message", [
    ("solve", 2, "a2: values must be finite"),
    ("info", 0, "# sigma0 = nan"),
])
def test_inv_curvature_on_a_straight_chain_runs_without_warning(
        command, rc, message, capsys, tmp_path):
    # the square's chains are straight, so 1/curvature is infinite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cli.main([command, "--domain", "square", "--n", "4",
                        "--a2", "inv_curvature", "--output-dir", str(tmp_path)])
    assert got == rc
    assert message in "".join(capsys.readouterr())


@pytest.mark.parametrize("argv", [
    ["solve", "--domain", "cable", "--n", "100000000"],
    ["mesh", "--domain", "square", "--n", "1000"],
    ["info", "--domain", "annulus", "--n", "500"],
    ["convergence", "--domain", "square", "--n", "8", "--levels", "100"],
])
def test_oversized_mesh_exits_2_before_meshing(argv, monkeypatch, capsys,
                                               tmp_path):
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")
    for module in (cli, solver):
        monkeypatch.setattr(module, "triangulate", no_mesh)
    assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: n: " in err
    assert f"above the cap of {cli.MAX_NODES}" in err


def test_info_prints_non_finite_bounds(capsys):
    assert cli.main(["info", "--domain", "square", "--n", "4",
                     "--a2", "const:nan"]) == 0
    assert "# lambda2 = " in capsys.readouterr().out


def test_bad_config_file_exits_2(tmp_path, capsys):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("banana = 3\n")
    assert cli.main(["info", "--config", str(bad_key)]) == 2
    bad_int = tmp_path / "b.cfg"
    bad_int.write_text("n = abc\n")
    assert cli.main(["info", "--config", str(bad_int)]) == 2
    no_eq = tmp_path / "c.cfg"
    no_eq.write_text("nonsense\n")
    assert cli.main(["info", "--config", str(no_eq)]) == 2
    assert cli.main(["info", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(problem, mesh=None, n=None, keep_factor=False):
        raise SingularSystemError("synthetic failure")
    monkeypatch.setattr(cli, "solve_ventcel", boom)
    rc = cli.main(["solve", "--domain", "square", "--n", "2",
                   "--output-dir", str(tmp_path)])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err


# ----------------------------------------------------------------------
# commands


def test_mesh_command(tmp_path, capsys):
    rc = cli.main(["mesh", "--domain", "square", "--n", "3",
                   "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mesh square n=3" in out
    assert "wrote" in out
    lines = (tmp_path / "mesh.txt").read_text().splitlines()
    assert lines[:2] == ["ventcel-mesh v1", "NODES 16"]


def test_solve_zero_data(tmp_path, capsys):
    rc = cli.main(["solve", "--domain", "cable", "--n", "4",
                   "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "solved cable n=4" in out
    data = read_solution(tmp_path / "solution.csv")
    assert np.abs(data[:, 2]).max() == 0.0
    assert (tmp_path / "trace.csv").exists()
    diag = read_diagnostics(tmp_path / "diagnostics.txt")
    assert diag["algebraic_residual"] < 1e-12
    assert diag["rcond"] > 1e-12
    assert diag["sigma_min"] > 0.0
    assert diag["lambda2"] == 1.0 and diag["Lambda2"] == 1.0
    assert "e_L2" not in diag


def test_solve_recovers_affine_solution(tmp_path, capsys):
    # u = x + y with a2 = 1, a0 = 0 on the square: the chain data is
    # g1 = u_nu = 2y - 3 on the two flat chains, phi = u on the walls
    rc = cli.main(["solve", "--domain", "square", "--n", "4",
                   "--g1", "poly:-3,0,2", "--phi", "affine",
                   "--exact", "affine", "--output-dir", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    diag = read_diagnostics(tmp_path / "diagnostics.txt")
    assert diag["e_L2"] < 1e-12
    assert diag["e_V0"] < 1e-12
    assert diag["e_trace"] < 1e-12
    data = read_solution(tmp_path / "solution.csv")
    assert np.abs(data[:, 0] + data[:, 1] - data[:, 2]).max() < 1e-12


def test_convergence_command(tmp_path, capsys):
    rc = cli.main(["convergence", "--domain", "square", "--n", "4",
                   "--levels", "3", "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "convergence square/affine" in out
    lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "n,h,e_L2,e_V0,e_trace,order_L2,order_V0"
    assert len(lines) == 4


def test_verify_command(tmp_path, capsys):
    rc = cli.main(["verify", "--seed", "42", "--output-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().splitlines()[-1] == "ALL PASS"
    for fname in ("summary.txt", "coercivity.csv", "convergence_cable.csv",
                  "uniqueness.csv"):
        assert (tmp_path / fname).exists()
