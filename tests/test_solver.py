from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ventcelfem import cli, femcore, solver
from ventcelfem.domain import square_domain
from ventcelfem.fields import ConstantCoefficient, FieldCoefficient, QuadraticField, ZERO
from ventcelfem.solver import (
    SingularSystemError,
    VentcelProblem,
    estimate_trace_lipschitz,
    factorize,
    manufactured_problem,
    solve_linear,
    solve_ventcel,
    uniqueness_diagnostic,
    write_solution_csv,
    write_trace_csv,
)
from ventcelfem.verify import cable_problem, square_affine_problem

A2_ONE = ConstantCoefficient(1.0)


def test_solution_is_linear_in_the_load():
    dom = square_domain()
    base = VentcelProblem(domain=dom, a2=A2_ONE, a0=ZERO,
                          f1=ConstantCoefficient(1.0))
    double = VentcelProblem(domain=dom, a2=A2_ONE, a0=ZERO,
                            f1=ConstantCoefficient(2.0))
    u1 = solve_ventcel(base, n=6).values
    u2 = solve_ventcel(double, n=6).values
    scale = np.abs(u2).max()
    assert scale > 0
    assert np.abs(u2 - 2.0 * u1).max() < 1e-12 * scale


def test_dirichlet_nodes_carry_exact_data():
    sol = solve_ventcel(cable_problem(), n=8)
    space = sol.space
    mask = space.dirichlet_mask
    exact = cable_problem().exact
    want = exact.value(space.mesh.nodes[mask])
    assert np.abs(sol.values[mask] - want).max() < 1e-12
    assert np.abs(sol.homogeneous[mask]).max() == 0.0


def test_solution_independent_of_lifting_constant():
    prob = cable_problem()
    sol_a = solve_ventcel(prob, n=8)
    k_auto = estimate_trace_lipschitz(sol_a.space, prob.phi)
    prob_big = VentcelProblem(
        domain=prob.domain, a2=prob.a2, a0=prob.a0, phi=prob.phi,
        lipschitz_k=3.0 * k_auto, exact=prob.exact)
    sol_b = solve_ventcel(prob_big, n=8)
    scale = np.abs(sol_a.values).max()
    assert np.abs(sol_a.values - sol_b.values).max() < 1e-9 * scale


def test_zero_data_gives_zero_solution():
    prob = VentcelProblem(domain=square_domain(), a2=A2_ONE, a0=ZERO)
    sol = solve_ventcel(prob, n=6)
    assert np.abs(sol.values).max() == 0.0


def test_manufactured_chain_load_values():
    prob = square_affine_problem()
    bottom, top = prob.domain.ventcel_curves
    t = np.array([0.5])
    # bottom y=1: u=1.5, outward normal -e_y so u_nu=-1, u_ss=0, a0=1.25
    got = prob.g1.eval_curve(bottom, t)[0]
    assert abs(got - (-1.0 + 1.25 * 1.5)) < 1e-13
    # top y=2: u=2.5, u_nu=+1, a0=2
    got = prob.g1.eval_curve(top, t)[0]
    assert abs(got - (1.0 + 2.0 * 2.5)) < 1e-13
    # interior source of an affine solution vanishes
    pts = np.array([[0.5, 1.5], [0.2, 1.8]])
    assert np.abs(prob.f1.eval_points(pts)).max() < 1e-14


def test_manufactured_problem_rejects_unknown_name():
    with pytest.raises(ValueError, match="exact"):
        manufactured_problem(square_domain(), "mystery", A2_ONE, ZERO)


def test_solve_ventcel_needs_mesh_or_n():
    with pytest.raises(ValueError):
        solve_ventcel(cable_problem())


def test_solve_linear_raises_on_singular():
    singular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularSystemError):
        solve_linear(singular, np.array([1.0, 0.0]))


def test_uniqueness_diagnostic_healthy_system():
    sol = solve_ventcel(square_affine_problem(), n=4)
    rep = uniqueness_diagnostic(sol.system, seed=0)
    assert rep.n_free == sol.space.n_free
    assert not rep.singular
    assert 1e-12 < rep.rcond <= 1.0
    assert rep.sigma_min > 0.0
    # deterministic for a fixed seed
    rep2 = uniqueness_diagnostic(sol.system, seed=0)
    assert rep2.rcond == rep.rcond and rep2.sigma_min == rep.sigma_min


def test_uniqueness_diagnostic_reports_convergence():
    sol = solve_ventcel(cable_problem(), n=8)
    rep = uniqueness_diagnostic(sol.system, seed=0)
    assert rep.iterations == 20
    assert 0.0 <= rep.last_rel_change < 1e-10
    # a singular factorization reports no iterations
    bad = SimpleNamespace(matrix=sp.csr_matrix(np.ones((2, 2))))
    rep = uniqueness_diagnostic(bad)
    assert rep.singular and rep.iterations == 0


def test_solve_builds_wall_samples_once(monkeypatch):
    calls = []
    build = femcore.dirichlet_boundary_samples

    def counting(mesh):
        calls.append(mesh)
        return build(mesh)

    for module in (femcore, solver):
        monkeypatch.setattr(module, "dirichlet_boundary_samples", counting)
    sol = solve_ventcel(cable_problem(), n=8)
    assert len(calls) == 1
    monkeypatch.undo()
    assert np.array_equal(sol.values, solve_ventcel(cable_problem(), n=8).values)


def test_csv_exports(tmp_path):
    sol = solve_ventcel(square_affine_problem(), n=3)
    spath = tmp_path / "solution.csv"
    tpath = tmp_path / "trace.csv"
    write_solution_csv(sol, str(spath))
    write_trace_csv(sol, str(tpath))

    rows = spath.read_text().strip().splitlines()
    assert rows[0] == "x,y,u"
    assert len(rows) == 1 + sol.space.n_nodes
    x, y, u = (float(v) for v in rows[1].split(","))
    assert abs(u - (x + y)) < 1e-12     # machine-exact affine solution

    rows = tpath.read_text().strip().splitlines()
    assert rows[0] == "curve_id,t,s,u,u_tau"
    n_chain_edges = len(sol.space.ventcel_edges)
    assert len(rows) == 1 + 3 * n_chain_edges   # Gauss points per edge
    cid, t, s, u, u_tau = rows[1].split(",")
    assert cid.startswith("segment")
    assert abs(float(u_tau) - 1.0) < 1e-12      # d(x+y)/ds along y=1


def test_uniqueness_diagnostic_reuses_factor():
    sol = solve_ventcel(cable_problem(), n=8, keep_factor=True)
    assert sol.factor is not None
    assert solve_ventcel(cable_problem(), n=8).factor is None
    fresh = uniqueness_diagnostic(sol.system, seed=3)
    reused = uniqueness_diagnostic(sol.system, seed=3, lu=sol.factor)
    assert reused == fresh
    v = solve_linear(sol.system.matrix, sol.load.rhs_free,
                     lu=factorize(sol.system.matrix))
    assert np.array_equal(v, sol.homogeneous[sol.space.free])


def test_solve_command_factors_once(tmp_path, monkeypatch, capsys):
    calls = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    rc = cli.main(["solve", "--domain", "cable", "--n", "8",
                   "--phi", "harmonic_cubic", "--exact", "harmonic_cubic",
                   "--output-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    assert len(calls) == 1
    assert "rcond = " in (tmp_path / "diagnostics.txt").read_text()


def test_solution_csv_bytes_match_per_node_format(tmp_path):
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 1.0 / 3.0,
               np.inf, -np.inf, np.nan, 2.0**52 + 1, 123456789.0, 1e-7]
    nodes = np.column_stack([special, rng.standard_normal(len(special))])
    nodes = np.vstack([nodes, rng.standard_normal((200, 2)) * 1e3])
    values = np.concatenate([special[::-1], rng.standard_normal(200) * 1e-5])
    solution = SimpleNamespace(space=SimpleNamespace(mesh=SimpleNamespace(
        nodes=nodes)), values=values)
    path = tmp_path / "solution.csv"
    write_solution_csv(solution, str(path))

    lines = ["x,y,u"] + [",".join(format(float(v), ".17g") for v in (x, y, u))
                         for (x, y), u in zip(nodes, values)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
