import argparse
import os
import re
import subprocess
import sys
import threading
import warnings

import cases
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ventcelfem import cli, solver
from ventcelfem.domain import make_domain
from ventcelfem.femcore import InputError
from ventcelfem.fields import EXACT_SOLUTIONS, parse_coefficient
from ventcelfem.mesh import triangulate
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
    # a '#' inside a value is no comment: only one at the start of a
    # line or after whitespace is
    argv = ["info", "--domain", "square", "--n", "4", "--a2", "poly:3,1",
            "--a0", "const:1", "--seed", "7", "--phi", "const:1#x",
            "--output-dir", "o#d"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    echo = [l for l in first.splitlines() if not l.startswith("#")]
    assert "domain = square" in echo
    assert "a2 = poly:3,1" in echo
    assert "n = 4" in echo
    assert "phi = const:1#x" in echo
    assert "output_dir = o#d" in echo
    # OPTIONS is the one list of keys: the echo and --help follow it
    assert [l.split(" = ")[0] for l in echo] == list(cli.OPTIONS)
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    flags = re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)
    assert flags == ["--config"] + ["--" + key.replace("_", "-")
                                    for key in cli.OPTIONS]

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("\n".join(echo) + "\n")
    assert cli.main(["info", "--config", str(cfg_path)]) == 0
    second = capsys.readouterr().out
    second_echo = [l for l in second.splitlines() if not l.startswith("#")]
    assert second_echo == echo


def reads_back(value):
    """A text value reads back unless it holds a line break, starts or ends
    with whitespace, or has whitespace (the echo's " = " included) before
    a '#'."""
    return ("\n" not in value and "\r" not in value
            and value == value.strip() and not re.search(r"\s#", " " + value))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=st.text())
@example(value="const:1#x")
@example(value="#x")
@example(value=" sp")
@example(value="a\rb")
def test_an_echoed_text_value_reads_back(value, tmp_path):
    # or the echo refuses it, naming the first text key
    cfg = argparse.Namespace(**{
        key: value if isinstance(default, str) else default
        for key, (default, _) in cli.OPTIONS.items()})
    if not reads_back(value):
        with pytest.raises(InputError, match="^domain: .* would not read"):
            cli.config_echo(cfg)
        return
    path = tmp_path / "run.cfg"
    path.write_text(cli.config_echo(cfg) + "\n", encoding="utf-8")
    assert cli.read_config_file(str(path)) == {
        key: str(getattr(cfg, key)) for key in cli.OPTIONS}


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


# ----------------------------------------------------------------------
# exits of the rows of tests/cases.py, beyond what every row checks


def row_argv(*names):
    return [cases.ROWS[name].line.split() for name in names]


@pytest.mark.parametrize("argv", row_argv(
    "solve_hexagon", "solve_n1", "info_unknown_exact", "solve_unknown_a2",
    "solve_negative_a2", "convergence_levels_2",
    *(f"{command}_infinite_annulus" for command in cases.COMMANDS),
    "solve_tiny_annulus",
    *(f"{command}_thin_annulus" for command in cases.COMMANDS)))
def test_bad_configuration_exits_2(argv, capsys, tmp_path):
    assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


@pytest.mark.parametrize("text", cases.EMPTY_CELLS)
def test_empty_poly_cell_exits_2(text, runs):
    run = runs[f"solve_a2_{text}"]
    assert run.code == 2
    assert run.stderr == f"configuration error: a2: bad number in {text!r}\n"
    assert not (run.out / "solution.csv").exists()


@pytest.mark.parametrize("key, value", cases.NON_FINITE)
def test_non_finite_data_exits_2(key, value, runs):
    run = runs[f"solve_{key}_{value}"]
    assert run.code == 2
    assert f"configuration error: {key}: " in run.stderr
    assert "finite" in run.stderr
    assert not (run.out / "solution.csv").exists()


@pytest.mark.parametrize("argv, rc, message", [
    (*row_argv(name), cases.ROWS[name].code, message)
    for name, message in [
        ("solve_cable_f1_poly:0,inf", "configuration error: f1: "),
        ("solve_cable_g1_poly:1e308,1e308", "configuration error: g1: "),
        ("solve_cable_f2x_const:1e308", "solver failure: "),
        ("solve_cable_a2_poly:1e308,1e308", "configuration error: a2: "),
        ("info_cable_a2_poly:1e308,1e308", None),
        ("convergence_cable_a2_poly:1e308,1e308", "configuration error: a2: "),
        ("solve_cable_phi_poly:1e308,1e308", "configuration error: phi: "),
        ("convergence_cable_a0_const:1e308", "configuration error: a0: "),
        ("solve_square_a2_const:1e308", cases.OVERFLOW),
        ("solve_cable_a2_const:1.7e308", cases.OVERFLOW),
        ("convergence_cable_a2_const:1.7e308", cases.OVERFLOW)]])
def test_huge_or_infinite_data_exits_without_warning(argv, rc, message,
                                                     capsys, tmp_path):
    # inf * 0 and sums past the double range give nan or inf, which a
    # finiteness check or the solve reports; numpy must not warn first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = cli.main(argv + ["--output-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert got == rc
    if message is None:
        assert err == "" and "# sigma0 = inf\n" in out
    else:
        assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("command, rc, message", [
    ("solve", 2, "a2: values must be finite"),
    ("info", 0, "# sigma0 = nan"),
])
def test_inv_curvature_on_a_straight_chain_runs_without_warning(
        command, rc, message, runs):
    # the square's chains are straight, so 1/curvature is infinite; every
    # warning is an error in the row's run
    run = runs[f"{command}_square_inv_curvature"]
    assert run.code == rc
    assert message in run.stdout + run.stderr


@pytest.mark.parametrize("key", cases.OFF_CHAIN)
def test_inv_curvature_off_the_chain_names_its_key(key, runs):
    assert runs[f"solve_{key}_inv_curvature"][:3] == (2, "", (
        f"configuration error: {key}: inv_curvature is defined only on "
        "boundary curves\n"))


@pytest.mark.parametrize("a2, rc", [("const:1e12", 3), ("const:1e6", 0)])
def test_singular_system_exits_3_before_any_output(a2, rc, runs):
    # annulus at n = 32: rcond 9.6e-17 at a2 = 1e12, 9.5e-11 at a2 = 1e6
    run = runs[f"solve_annulus_a2_{a2.partition(':')[2]}"]
    assert run.code == rc
    if rc == 3:
        assert run.stderr.startswith(
            "solver failure: reduced system is singular")
        assert float(run.stderr.split("rcond = ")[1].rstrip(")\n")) < 1e-14
        assert os.listdir(run.out) == []
    else:
        assert run.stderr == ""
        assert read_diagnostics(run.out / "diagnostics.txt")["rcond"] >= 1e-14
        assert (run.out / "solution.csv").exists()


@pytest.mark.parametrize("a2", ["const:1e10", "const:1e12"])
def test_singular_convergence_level_exits_3_without_a_csv(a2, runs):
    # the first level, n = 8, is singular to working precision
    run = runs[f"convergence_annulus_a2_{a2.partition(':')[2]}"]
    assert run.code == 3
    assert run.stdout == ""
    err = run.stderr.splitlines()
    assert len(err) == 1
    assert err[0].startswith("solver failure: reduced system is singular to "
                             "working precision (rcond = ")
    assert float(err[0].split("rcond = ")[1].rstrip(")")) < 1e-14
    assert os.listdir(run.out) == []


def test_huge_a2_slope_gives_an_infinite_shift(tmp_path, capsys):
    # grad_bound**2 is past the double range
    config = ["--domain", "square", "--n", "4", "--a2", "poly:1e160,1e160"]
    assert cli.main(["info", *config]) == 0
    assert "# sigma0 = inf\n" in capsys.readouterr().out
    assert cli.main(["solve", *config, "--output-dir", str(tmp_path)]) == 3
    assert "singular" in capsys.readouterr().err


def test_huge_wall_data_gives_a_finite_residual(tmp_path, capsys):
    # the squares in the residual's norms are past the double range
    assert cli.main(["solve", "--domain", "square", "--n", "4", "--phi",
                     "const:1e300", "--output-dir", str(tmp_path)]) == 0
    residual = read_diagnostics(tmp_path / "diagnostics.txt")[
        "algebraic_residual"]
    assert 0.0 <= residual < 1e-14
    capsys.readouterr()


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


# Excel's "CSV UTF-8" starts the file with a byte-order mark
@pytest.mark.parametrize("header", ["node,value\r\n", ""],
                         ids=["header", "no_header"])
def test_nodal_file_with_a_byte_order_mark_solves(header, capsys, tmp_path):
    rows = "".join(f"{i},{1.0 + i / 8}\r\n" for i in range(9))
    (tmp_path / "plain.csv").write_text(header + rows, encoding="utf-8")
    (tmp_path / "bom.csv").write_text(header + rows, encoding="utf-8-sig")
    for name in ("plain", "bom"):
        assert cli.main(["solve", "--domain", "square", "--n", "2", "--a2",
                         f"nodal:{tmp_path / name}.csv",
                         "--output-dir", str(tmp_path / name)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "bom" / "solution.csv").read_bytes() \
        == (tmp_path / "plain" / "solution.csv").read_bytes()


def test_wall_data_singular_at_a_wall_point_exits_2_without_warning(
        capsys, tmp_path):
    # log_radial is -inf at the origin, a wall point of the cable domain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["solve", "--domain", "cable", "--n", "4",
                       "--phi", "log_radial", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "phi: wall data must be finite" in capsys.readouterr().err


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
    assert f"configuration error: n: the {argv[2]} mesh at n = " in err
    assert f"above the cap of {cli.MAX_NODES}" in err
    if argv[0] == "info":
        assert err == ("configuration error: n: the annulus mesh at n = 500 "
                       "has 1002000 nodes, above the cap of 1000000\n")


def test_info_prints_non_finite_bounds(capsys):
    assert cli.main(["info", "--domain", "square", "--n", "4",
                     "--a2", "const:nan"]) == 0
    assert "# lambda2 = " in capsys.readouterr().out


def test_info_and_solve_print_the_same_bounds(tmp_path, capsys):
    config = ["--domain", "cable", "--n", "8", "--a2", "inv_curvature",
              "--a0", "poly:1,0,0,0,0,0.25"]
    assert cli.main(["info", *config]) == 0
    info = [line[2:] for line in capsys.readouterr().out.splitlines()
            if line.startswith("# ") and not line.startswith("# nodes")]
    keys = [line.split(" = ")[0] for line in info]
    assert keys == ["lambda2", "Lambda2", "grad_bound", "lambda0", "Lambda0",
                    "sigma0"]
    assert cli.main(["solve", *config, "--output-dir", str(tmp_path)]) == 0
    diag = (tmp_path / "diagnostics.txt").read_text().splitlines()
    assert [line for line in diag if line.split(" = ")[0] in keys] == info


def test_config_file_with_a_byte_order_mark_reads(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("domain = square\nn = 4\n", encoding="utf-8-sig")
    assert cli.read_config_file(str(path)) == {"domain": "square", "n": "4"}
    assert cli.main(["info", "--config", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "domain = square" in out and "n = 4" in out


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
    not_utf8 = tmp_path / "d.cfg"
    not_utf8.write_bytes(b"domain = square\nn = 2\xff\n")
    assert cli.main(["info", "--config", str(not_utf8)]) == 2
    assert f"config: cannot read {str(not_utf8)!r}: 'utf-8' codec" in (
        capsys.readouterr().err)
    nul_path = tmp_path / "e.cfg"
    nul_path.write_bytes(b"domain = square\nn = 2\na2 = nodal:ab\0c\n")
    assert cli.main(["info", "--config", str(nul_path)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: a2: nodal csv ab\0c: cannot read "
        "(embedded null byte)\n")


def test_internal_value_error_is_not_a_configuration_error(tmp_path,
                                                           monkeypatch):
    # a ValueError that no input check raised is a bug: no exit code
    def boom(*args, **kwargs):
        raise ValueError("synthetic")
    monkeypatch.setattr(cli, "solve_ventcel", boom)
    with pytest.raises(ValueError, match="synthetic"):
        cli.main(["solve", "--domain", "square", "--n", "2",
                  "--output-dir", str(tmp_path)])


def _singular(matrix):
    raise SingularSystemError("synthetic failure")


def test_bad_wall_data_outranks_a_failed_factorization(tmp_path, monkeypatch,
                                                       capsys):
    # the factor would fail at once, but the wall data is read and
    # refused on the calling thread before the factor starts
    monkeypatch.setattr(solver, "factorize", _singular)
    threads = threading.active_count()
    rc = cli.main(["solve", "--domain", "square", "--n", "4",
                   "--phi", "const:nan", "--output-dir", str(tmp_path)])
    assert threading.active_count() == threads
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error: phi: wall data must be finite" in err
    assert "solver failure" not in err


def test_bad_load_exits_2_before_any_factoring(tmp_path, monkeypatch):
    # the load is assembled on the calling thread before the factor
    factored = []
    monkeypatch.setattr(solver, "factorize", factored.append)
    run = cases.run("solve_cable_g1_poly:1e308,1e308", tmp_path, None)
    assert run.code == 2
    assert run.stderr.startswith(
        "configuration error: g1: load data must be finite")
    assert factored == []


@pytest.mark.parametrize("name, key", [
    ("solve_cable_phi_const:nan", "phi"),
    ("convergence_cable_exact_log_radial", "exact")])
def test_bad_wall_data_exits_2_before_any_factoring(name, key, tmp_path,
                                                    monkeypatch):
    # the wall data is read on the calling thread before the factor
    factored = []
    monkeypatch.setattr(solver, "factorize", factored.append)
    run = cases.run(name, tmp_path, None)
    assert run.code == 2
    assert run.stderr.startswith(f"configuration error: {key}: ")
    assert factored == []


def test_failed_factorization_alone_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(solver, "factorize", _singular)
    threads = threading.active_count()
    rc = cli.main(["solve", "--domain", "square", "--n", "4",
                   "--phi", "affine", "--output-dir", str(tmp_path)])
    assert threading.active_count() == threads
    assert rc == 3
    assert "solver failure: synthetic failure" in capsys.readouterr().err


def test_nonpositive_triangle_area_exits_4(tmp_path, monkeypatch, capsys):
    triangulate = cli.triangulate

    def one_clockwise(dom, n):
        mesh = triangulate(dom, n)
        mesh.triangles[0] = mesh.triangles[0, ::-1]
        return mesh

    monkeypatch.setattr(cli, "triangulate", one_clockwise)
    rc = cli.main(["solve", "--domain", "square", "--n", "4",
                   "--output-dir", str(tmp_path)])
    assert rc == 4
    assert capsys.readouterr().err == (
        "internal error: mesh has nonpositive triangle areas\n")


def test_nodal_load_asked_outside_its_mesh_exits_4(tmp_path, monkeypatch,
                                                  capsys):
    # the load is assembled on the worker thread; its error must surface
    path = tmp_path / "f1.csv"
    path.write_text(NODAL_ROWS)
    build = solver.build_space

    def space_on_a_fresh_mesh(mesh):
        return build(triangulate(make_domain("square"), 2))

    monkeypatch.setattr(solver, "build_space", space_on_a_fresh_mesh)
    threads = threading.active_count()
    rc = cli.main(["solve", "--domain", "square", "--n", "2",
                   "--f1", f"nodal:{path}", "--output-dir", str(tmp_path)])
    assert threading.active_count() == threads
    assert rc == 4
    assert capsys.readouterr().err == (
        "internal error: nodal coefficient asked for on a mesh other than "
        "its own\n")
    assert not (tmp_path / "solution.csv").exists()


def test_solver_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(problem, mesh=None, n=None):
        raise SingularSystemError("synthetic failure")
    monkeypatch.setattr(cli, "solve_ventcel", boom)
    rc = cli.main(["solve", "--domain", "square", "--n", "2",
                   "--output-dir", str(tmp_path)])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--domain", "cable", "--n", "128"],
    ["verify"],
])
def test_negative_seed_exits_2_before_any_work(argv, monkeypatch, capsys,
                                               tmp_path):
    def no_solve(*args, **kwargs):
        raise AssertionError("a system was solved")
    monkeypatch.setattr(cli, "solve_ventcel", no_solve)
    out = tmp_path / "out"
    assert cli.main(argv + ["--seed", "-1", "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "seed: must be a nonnegative integer, got -1" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, below", [
    (["solve", "--domain", "square", "--n", "2"], "sub"),
    (["convergence", "--domain", "square", "--n", "2", "--levels", "3"], ""),
    (["verify"], ""),
    (["mesh", "--domain", "square", "--n", "2"], "sub"),
])
def test_unusable_output_dir_exits_2_before_any_work(argv, below, monkeypatch,
                                                     capsys, tmp_path):
    def no_mesh(*args, **kwargs):
        raise AssertionError("a mesh was built")
    for module in (cli, solver):
        monkeypatch.setattr(module, "triangulate", no_mesh)
    monkeypatch.setattr(cli.verify, "run_suite", no_mesh)
    monkeypatch.setattr(cli.verify, "manufactured_convergence", no_mesh)
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = os.path.join(str(blocker), below) if below else str(blocker)
    assert cli.main(argv + ["--output-dir", target]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: output_dir: cannot use {target!r}" in err


# ----------------------------------------------------------------------
# the parse layer: any input text is read or rejected as an InputError


def read_or_reject(parse, *args):
    """``parse(*args)``, or None if it raised InputError; other errors
    propagate and fail the property."""
    try:
        return parse(*args)
    except InputError:
        return None


def prefixed(prefixes, rest):
    return st.builds(str.__add__, st.sampled_from(prefixes), rest)


# nodal paths stay inside the test's working directory
NODAL_PATHS = st.sampled_from(["body.csv", "ok.csv", ".", "", "ab\0c"]) | (
    st.text(st.characters(blacklist_characters="/")))
COEFFICIENT_TEXT = (st.text()
                    | prefixed(["const:", "poly:", "poly:1,"], st.text())
                    | prefixed(["nodal:"], NODAL_PATHS))
RADIUS_TEXT = st.sampled_from(["1", "2", "inf", "nan", "0", "1e-200", "2e-200",
                               "1e-50", "1e50", "1e160"]) | st.floats().map(repr)
DOMAIN_TEXT = (st.text() | prefixed(["annulus:"], st.text())
               | st.builds("annulus:{},{},{}".format, RADIUS_TEXT, RADIUS_TEXT,
                           st.sampled_from(["inner", "outer", " outer", ""])))
CONFIG_LINES = st.lists(st.tuples(st.sampled_from([*cli.OPTIONS, "x"]),
                                  st.text()), max_size=4)
CONFIG_BODY = st.binary() | CONFIG_LINES.map(
    lambda kv: "".join(f"{k} = {v}\n" for k, v in kv).encode())


# every example shares tmp_path and rewrites the files it reads there
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=COEFFICIENT_TEXT, body=st.binary(),
       role=st.sampled_from(["a2", "a0", "f1", "f2x", "g1", "phi"]))
@example(text="nodal:ab\0c", body=b"", role="a2")
def test_any_coefficient_text_is_read_or_rejected(text, body, role, tmp_path,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    mesh = triangulate(make_domain("square"), 2)
    (tmp_path / "ok.csv").write_text(NODAL_ROWS)
    (tmp_path / "body.csv").write_bytes(body)
    read_or_reject(parse_coefficient, text, mesh, role)


@given(text=DOMAIN_TEXT)
@example(text="annulus:1,inf,outer")
@example(text="annulus:1e-200,2e-200,inner")
def test_any_domain_text_is_read_or_rejected(text):
    dom = read_or_reject(make_domain, text)
    if dom is not None and dom.kind == "annulus":
        r0, r1 = dom.params["r_inner"], dom.params["r_outer"]
        assert 1e-50 <= r0 < r1 <= 1e50


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=CONFIG_BODY, command=st.sampled_from(sorted(cli.COMMANDS)))
def test_any_config_file_is_read_or_rejected(body, command, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(body)
    args = argparse.Namespace(command=command, config=str(path))
    cfg = read_or_reject(cli.build_config, args)
    # a read file gives every key a value of its default's type
    assert cfg is None or all(isinstance(getattr(cfg, key), type(default))
                              for key, (default, _) in cli.OPTIONS.items())


# verify is left out: it ignores the file's data and runs the whole suite
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=CONFIG_BODY,
       command=st.sampled_from(["info", "mesh", "solve", "convergence"]))
def test_any_config_file_runs_or_exits_as_documented(body, command, tmp_path,
                                                     monkeypatch, capsys):
    # the flags win over the file, so no example builds a big mesh or
    # runs a long study
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.cfg"
    path.write_bytes(body)
    rc = cli.main([command, "--config", str(path), "--n", "2", "--levels",
                   "3", "--output-dir", str(tmp_path / "out")])
    capsys.readouterr()
    assert rc in ((0, 2) if command in ("info", "mesh") else (0, 2, 3))


# any coefficient text on info and solve: a result or a documented exit
NUMBER_TEXT = (st.floats(-1e200, 1e200).map(repr)
               | st.sampled_from(["nan", "inf", "-inf", "1e200", "-1e200",
                                  "x", ""]))
KEY_TEXT = (prefixed(["const:"], NUMBER_TEXT)
            | st.lists(NUMBER_TEXT, min_size=1, max_size=7).map(
                lambda c: "poly:" + ",".join(c))
            | st.sampled_from(["inv_curvature", "nodal:missing.csv", "junk",
                               *sorted(EXACT_SOLUTIONS)]))
DATA_KEYS = ("a2", "a0", "f1", "f2x", "f2y", "g1", "g2", "phi")


@settings(max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["info", "solve"]),
       domain=st.sampled_from(["cable", "square", "annulus"]),
       n=st.integers(2, 4), data=st.dictionaries(st.sampled_from(DATA_KEYS),
                                                 KEY_TEXT))
@example(command="info", domain="square", n=4,
         data={"a2": "poly:1e160,1e160"})
@example(command="solve", domain="square", n=4, data={"phi": "const:1e200"})
@example(command="solve", domain="cable", n=2, data={"f1": "poly:0,inf"})
@example(command="solve", domain="cable", n=2, data={"f2x": "const:1e308"})
def test_any_coefficient_text_runs_or_exits_as_documented(
        command, domain, n, data, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    (out / "diagnostics.txt").unlink(missing_ok=True)
    argv = [command, "--domain", domain, "--n", str(n), "--output-dir",
            str(out)]
    for key, text in data.items():
        argv += [f"--{key}", text]
    rc = cli.main(argv)
    capsys.readouterr()
    assert rc in ((0, 2) if command == "info" else (0, 2, 3))
    if command == "solve" and rc == 0:
        residual = read_diagnostics(out / "diagnostics.txt")[
            "algebraic_residual"]
        assert np.isfinite(residual)


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
    assert "sigma_min" not in diag
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


@pytest.mark.parametrize("domain", ["square", "cable", "annulus"])
def test_nodal_wall_data_matches_the_analytic_solve(domain, tmp_path, capsys):
    # phi = x + y is affine along every straight wall edge, so its P1
    # interpolant is the same wall data up to rounding
    mesh = triangulate(make_domain(domain), 6)
    path = tmp_path / "phi.csv"
    cases.write_nodal(path, EXACT_SOLUTIONS["affine"].value(mesh.nodes))
    base = ["solve", "--domain", domain, "--n", "6", "--g1", "poly:1,0,2"]
    for phi in ("affine", f"nodal:{path}"):
        out = tmp_path / phi[:5]
        assert cli.main(base + ["--phi", phi, "--output-dir", str(out)]) == 0
    capsys.readouterr()
    want = read_solution(tmp_path / "affin" / "solution.csv")[:, 2]
    got = read_solution(tmp_path / "nodal" / "solution.csv")[:, 2]
    assert np.abs(got - want).max() <= 1e-12
    walls = np.unique(mesh.walls)
    assert len(walls) > 0
    values = np.loadtxt(path, delimiter=",")[:, 1]
    assert np.array_equal(got[walls], values[walls])


def test_nodal_solve_does_not_import_scipy_spatial(tmp_path):
    # nodal data is read on its own mesh's edges: nothing locates points
    cases.write_inputs(tmp_path)
    argv = cases.ROWS["solve_annulus_nodal_n8"].argv(tmp_path)
    argv += ["--output-dir", str(tmp_path / "out")]
    code = ("import sys; from ventcelfem import cli; "
            "rc = cli.main(sys.argv[1:]); "
            "print('scipy.spatial' in sys.modules); sys.exit(rc)")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "out" / "solution.csv").exists()


def test_convergence_command(tmp_path, capsys):
    rc = cli.main(["convergence", "--domain", "square", "--n", "4",
                   "--levels", "3", "--output-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "convergence square/affine" in out
    lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "n,h,e_L2,e_V0,e_trace,order_L2,order_V0"
    assert len(lines) == 4
