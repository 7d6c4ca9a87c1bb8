import dataclasses
import math
import threading
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from ventcelfem import cli, femcore, solver
from ventcelfem.domain import (InputError, annulus_domain, cable_domain,
                               square_domain)
from ventcelfem.femcore import assemble_bilinear, assemble_load, build_space
from ventcelfem.fields import (ConstantCoefficient, FieldCoefficient,
                               QuadraticField, ZERO)
from ventcelfem.geometry import CableArc
from ventcelfem.mesh import triangulate
from ventcelfem.solver import (
    SingularSystemError,
    VentcelProblem,
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
    problem = cable_problem()
    sol = solve_ventcel(problem, n=8)
    space = sol.space
    mask = space.dirichlet_mask
    want = problem.exact.value(space.mesh.nodes[mask])
    assert np.abs(sol.values[mask] - want).max() < 1e-12
    # the reduced solve adds nothing on the walls: u = lift there
    lift = femcore.mcshane_lift(space, femcore.wall_data(space, problem.phi))
    assert sol.values[mask].tobytes() == lift[mask].tobytes()


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


@settings(max_examples=30)
@given(n=st.integers(2, 12),
       c=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                   st.floats(-2.0, 2.0)),
       a2=st.floats(0.1, 10.0), a0=st.floats(0.0, 3.0))
def test_square_reproduces_an_affine_exact_solution(n, c, a2, a0):
    # P1 holds affine fields and the square's chains are straight, so the
    # discrete solution is the exact one up to rounding
    exact = QuadraticField(*c)
    sol = solve_ventcel(manufactured_problem(
        square_domain(), exact, ConstantCoefficient(a2),
        ConstantCoefficient(a0)), n=n)
    want = exact.value(sol.space.mesh.nodes)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(sol.values - want).max() <= 1e-10 * scale


def _reduced_rhs(problem, system, lift):
    """(L - A lift)[free]: the right-hand side of the solve for v."""
    space = system.space
    load = femcore.assemble_load(space, f1=problem.f1, f2=problem.f2,
                                 g1=problem.g1, g2=problem.g2)
    return (load - system.A.dot(lift))[space.free]


def _serial_solve(problem, mesh):
    """values and residual from the solve's stages in turn."""
    space = build_space(mesh)
    system = assemble_bilinear(space, problem.a2, problem.a0)
    lift = femcore.mcshane_lift(space, femcore.wall_data(space, problem.phi))
    rhs = _reduced_rhs(problem, system, lift)
    v = solve_linear(factorize(system.matrix), rhs)
    r = system.matrix.dot(v) - rhs
    _, e = np.frexp(max(np.abs(r).max(initial=0.0),
                        np.abs(rhs).max(initial=0.0)))
    s = np.ldexp(1.0, -max(int(e), 0))
    residual = float(np.linalg.norm(r * s) / (s + np.linalg.norm(rhs * s)))
    values = lift.copy()
    values[space.free] += v
    return values, residual


DOMAIN_EXACT = {"square": (square_domain, "affine"),
                "cable": (cable_domain, "harmonic_cubic"),
                "annulus": (annulus_domain, "log_radial")}


@settings(max_examples=20)
@given(kind=st.sampled_from(sorted(DOMAIN_EXACT)), n=st.integers(2, 10),
       amp=st.floats(0.0, 10.0), seed=st.integers(0, 2**16))
def test_solution_independent_of_lifting_constant(kind, n, amp, seed):
    # the reduced solve absorbs the free-node part of any wall-exact lift:
    # random free-node values added to the lift change nothing but
    # rounding
    make, exact = DOMAIN_EXACT[kind]
    prob = manufactured_problem(make(), exact, A2_ONE, ZERO)
    sol = solve_ventcel(prob, n=n)
    space = sol.space
    system = assemble_bilinear(space, prob.a2, prob.a0)
    lift = femcore.mcshane_lift(space, femcore.wall_data(space, prob.phi))
    rng = np.random.default_rng(seed)
    lift[space.free] += amp * rng.uniform(-1.0, 1.0, space.n_free)
    values = lift.copy()
    values[space.free] += solve_linear(factorize(system.matrix),
                                       _reduced_rhs(prob, system, lift))
    scale = np.abs(sol.values).max()
    assert np.abs(values - sol.values).max() < 1e-9 * scale


@settings(max_examples=30)
@given(kind=st.sampled_from(sorted(DOMAIN_EXACT)), n=st.integers(2, 12),
       a2=st.floats(0.1, 10.0), a0=st.floats(0.0, 3.0),
       flux=st.floats(-2.0, 2.0))
def test_threaded_solve_matches_the_serial_stages_bit_for_bit(
        kind, n, a2, a0, flux):
    make, exact = DOMAIN_EXACT[kind]
    problem = dataclasses.replace(
        manufactured_problem(make(), exact, ConstantCoefficient(a2),
                             ConstantCoefficient(a0)),
        f2=(ConstantCoefficient(flux), FieldCoefficient(QuadraticField(0, 1))),
        g2=ConstantCoefficient(-flux))
    mesh = triangulate(problem.domain, n)
    threads = threading.active_count()
    sol = solve_ventcel(problem, mesh=mesh)
    assert threading.active_count() == threads
    values, residual = _serial_solve(problem, mesh)
    assert sol.values.tobytes() == values.tobytes()
    assert sol.residual.hex() == residual.hex()


def test_solve_frees_the_full_size_matrices_before_the_factor(monkeypatch):
    # only the reduced matrix outlives the assembly: K_int, S_b and M_b
    # are dead when the factor starts, and A and the load L once the
    # worker has joined
    refs, live = {}, {}
    assemble, load = solver.assemble_bilinear, solver.assemble_load
    factor, solve = solver.factorize, solver.solve_linear

    def alive(*names):
        return [k for k in names if refs[k]() is not None]

    def recording(*args):
        system = assemble(*args)
        for key in ("K_int", "S_b", "M_b", "A"):
            refs[key] = weakref.ref(getattr(system, key))
        return system

    def recording_load(*args, **kwargs):
        L = load(*args, **kwargs)
        refs["L"] = weakref.ref(L)
        return L

    def factorize(matrix):
        live["factor"] = alive("K_int", "S_b", "M_b")
        return factor(matrix)

    def solve_linear(lu, rhs):
        live["solve"] = alive("A", "L")
        return solve(lu, rhs)

    monkeypatch.setattr(solver, "assemble_bilinear", recording)
    monkeypatch.setattr(solver, "assemble_load", recording_load)
    monkeypatch.setattr(solver, "factorize", factorize)
    monkeypatch.setattr(solver, "solve_linear", solve_linear)
    solve_ventcel(cable_problem(), n=8)
    assert live == {"factor": [], "solve": []}


def test_solve_assembles_the_load_on_the_calling_thread_before_the_factor(
        monkeypatch):
    # only the lift overlaps the factor: the load and the wall data come
    # first
    events = []
    load, factor = solver.assemble_load, solver.factorize
    read = solver.wall_data

    def assemble_load(*args, **kwargs):
        events.append(("load", threading.get_ident()))
        L = load(*args, **kwargs)
        events.append(("load returned", threading.get_ident()))
        return L

    def wall_data(space, phi):
        events.append(("wall data", threading.get_ident()))
        return read(space, phi)

    def factorize(matrix):
        events.append(("factor", threading.get_ident()))
        return factor(matrix)

    monkeypatch.setattr(solver, "assemble_load", assemble_load)
    monkeypatch.setattr(solver, "wall_data", wall_data)
    monkeypatch.setattr(solver, "factorize", factorize)
    problem = square_affine_problem()
    assert problem.f1 is not None and problem.g1 is not None
    solve_ventcel(problem, n=4)
    caller = threading.get_ident()
    assert events == [("load", caller), ("load returned", caller),
                      ("wall data", caller), ("factor", caller)]


@pytest.mark.parametrize("key", ["a2", "a0"])
def test_manufactured_chain_load_names_the_coefficient_of_a_bad_term(key):
    # a2 * u_ss and a0 * u are inf or nan; the error names the
    # coefficient the user gave, not the derived load g1
    coef = {"a2": A2_ONE, "a0": ZERO, key: ConstantCoefficient(math.inf)}
    problem = manufactured_problem(cable_domain(), "harmonic_cubic",
                                   coef["a2"], coef["a0"])
    space = build_space(triangulate(problem.domain, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InputError, match=f"^{key}: the {key} term "):
            assemble_load(space, g1=problem.g1)


def test_solve_linear_raises_on_singular():
    singular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularSystemError,
                       match="^sparse factorization failed: "):
        factorize(singular)
    # a solve that fails on a good factor is reported as a solve failure
    with pytest.raises(SingularSystemError, match="^sparse solve failed: "):
        solve_linear(factorize(sp.identity(3)), np.ones(4))


def _diagnose(matrix):
    return uniqueness_diagnostic(matrix, factorize(matrix))


def _cable_matrix():
    """The reduced matrix that the n = 32 cable solve factors."""
    problem = cable_problem()
    return assemble_bilinear(build_space(triangulate(problem.domain, 32)),
                             problem.a2, problem.a0).matrix


def test_uniqueness_diagnostic_healthy_system():
    problem = square_affine_problem()
    matrix = assemble_bilinear(build_space(triangulate(problem.domain, 4)),
                               problem.a2, problem.a0).matrix
    assert 1e-12 < _diagnose(matrix) <= 1.0


def test_uniqueness_diagnostic_of_a_1x1_system():
    assert _diagnose(sp.csr_matrix(np.array([[-4.0]]))) == 1.0


class _CountingLU:
    """An LU factor that counts its solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, rhs, trans="N"):
        self.solves += 1
        return self.lu.solve(rhs, trans=trans)


def test_uniqueness_diagnostic_costs_one_onenormest():
    # the diagnostic is the rcond estimate alone: no second estimator
    # runs on the factor beside onenormest
    matrix = _cable_matrix()
    lu = factorize(matrix)
    diag, bare = _CountingLU(lu), _CountingLU(lu)
    m = matrix.shape[0]
    op = spla.LinearOperator((m, m), matvec=bare.solve,
                             rmatvec=lambda b: bare.solve(b, trans="T"),
                             dtype=np.float64)
    state = np.random.get_state()
    try:
        np.random.seed(0)
        uniqueness_diagnostic(matrix, diag)
        np.random.seed(0)
        spla.onenormest(op)
    finally:
        np.random.set_state(state)
    assert diag.solves == bare.solves > 0


def test_solve_builds_wall_samples_once(monkeypatch):
    calls = []
    read = femcore.wall_data

    def counting(space, phi):
        calls.append(space)
        return read(space, phi)

    monkeypatch.setattr(femcore, "wall_data", counting)
    monkeypatch.setattr(solver, "wall_data", counting)
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


def test_trace_csv_keeps_a_percent_sign_in_a_curve_token(tmp_path,
                                                          monkeypatch):
    sol = solve_ventcel(cable_problem(), n=4)
    monkeypatch.setattr(CableArc, "token", lambda self: "cable%s")
    path = tmp_path / "trace.csv"
    write_trace_csv(sol, str(path))
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == 3 * len(sol.space.ventcel_edges)
    assert all(r.startswith("cable%s,") and r.count(",") == 4 for r in rows)


VARIABLE_A2 = {"cable": (cable_domain, 32), "square": (square_domain, 16),
               "annulus": (annulus_domain, 8)}


@pytest.mark.parametrize("domain", sorted(VARIABLE_A2))
@pytest.mark.parametrize("seed", [0, 7])
def test_solve_certifies_its_system_bit_for_bit(domain, seed):
    # the solve's rcond is the standalone diagnostic of its matrix,
    # whatever the global np.random state (``seed``) each one meets;
    # a2 = 3 + x + y^2 / 4 >= 1 varies along every chain
    make, n = VARIABLE_A2[domain]
    problem = manufactured_problem(
        make(), DOMAIN_EXACT[domain][1],
        FieldCoefficient(QuadraticField(3.0, 1.0, 0.0, 0.0, 0.0, 0.25)),
        ConstantCoefficient(0.5))
    np.random.seed(seed)
    sol = solve_ventcel(problem, n=n)
    np.random.seed(seed ^ 0x5A5A5A5A)
    alone = _diagnose(assemble_bilinear(sol.space, problem.a2,
                                        problem.a0).matrix)
    assert sol.rcond.hex() == alone.hex()


@settings(max_examples=20)
@given(global_seed=st.integers(0, 2**32 - 1),
       case=st.sampled_from(["square_variable_a2", "cable"]))
def test_rcond_does_not_depend_on_the_global_rng(global_seed, case):
    # onenormest draws a start column from np.random, which nothing seeds
    if case == "cable":
        matrix = _cable_matrix()
    else:       # verify's uniqueness sweep, a2 = 10 (1 + 0.3 x), a0 = 1
        matrix = assemble_bilinear(
            build_space(triangulate(square_domain(), 8)),
            FieldCoefficient(QuadraticField(10.0, 3.0)), A2_ONE).matrix
    lu = factorize(matrix)
    np.random.seed(global_seed)
    first = uniqueness_diagnostic(matrix, lu)
    np.random.seed(global_seed ^ 0x5A5A5A5A)
    assert uniqueness_diagnostic(matrix, lu).hex() == first.hex()


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
