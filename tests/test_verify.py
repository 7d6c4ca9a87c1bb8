import functools
import inspect
import os
import re
from dataclasses import replace
from types import SimpleNamespace

import cases
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from ventcelfem import solver, verify
from ventcelfem.domain import annulus_domain, cable_domain, square_domain
from ventcelfem.fields import (
    ConstantCoefficient,
    EXACT_SOLUTIONS,
    FieldCoefficient,
    QuadraticField,
    ZERO,
)
from ventcelfem.femcore import assemble_bilinear, build_space
from ventcelfem.geometry import CableArc, Circle
from ventcelfem.mesh import triangulate
from ventcelfem.solver import VentcelProblem, solve_ventcel
from ventcelfem.verify import (
    ConvergenceReport,
    cable_problem,
    coercivity_eigencheck,
    compatibility_check,
    continuity_check,
    curve_poincare_check,
    ibp_identity_check,
    ibp_identity_suite,
    interval_poincare_check,
    poincare_counterexample,
    solution_errors,
    square_affine_problem,
    trace_poincare_estimate,
    weak_residual_check,
)

SUITE_FILES = [
    "poincare_interval.csv", "poincare_curve.csv", "trace_poincare.csv",
    "counterexample.csv", "coercivity.csv", "continuity.csv",
    "weak_residual.csv", "ibp.csv", "compatibility.csv",
    "convergence_cable.csv", "convergence_square.csv",
    "convergence_annulus.csv", "uniqueness.csv", "summary.txt",
]


# ----------------------------------------------------------------------
# level-set deviation inequality


def test_interval_ramp_oracle():
    # v = s on (0,1): lhs = 1/3, slope integral = 1, band = (0,1)
    label, lhs, rhs, ratio, measure, passed = interval_poincare_check(
        lambda s: np.asarray(s, float), "ramp")
    assert passed and label == "ramp"
    assert abs(lhs - 1.0 / 3.0) < 1e-6
    assert abs(rhs - 1.0) < 1e-9
    assert abs(measure - 1.0) < 1e-9
    assert abs(ratio - 1.0 / 3.0) < 1e-6


def test_interval_clamped_ramp_oracle():
    # v = min(2s, 1): the band is (0, 1/2); lhs = 1/6, rhs = (1/2)^2 * 2
    _, lhs, rhs, _, measure, passed = interval_poincare_check(
        lambda s: np.clip(2.0 * np.asarray(s), 0.0, 1.0), "clamped_ramp")
    assert passed
    assert abs(measure - 0.5) < 1e-9
    assert abs(lhs - 1.0 / 6.0) < 1e-6
    assert abs(rhs - 0.5) < 1e-9


def test_interval_constant_degenerates():
    _, lhs, rhs, ratio, measure, passed = interval_poincare_check(
        lambda s: np.full(np.shape(s), 0.7), "constant")
    assert passed
    assert lhs == 0.0 and rhs == 0.0 and measure == 0.0
    assert ratio == 0.0


def test_interval_quadratic_and_validation():
    rep = interval_poincare_check(lambda s: np.asarray(s) ** 2, "square")
    assert rep[-1]


def test_curve_semicircle_oracle():
    # x on the unit semicircle: v(s) = cos s on (0, pi);
    # lhs = int (cos s + 1)^2 = 3 pi / 2, rhs = pi^2 * int sin^2 = pi^3 / 2
    label, lhs, rhs, ratio, _, passed = curve_poincare_check(
        QuadraticField(0.0, 1.0), Circle(1.0, t_range=(0.0, np.pi)),
        "semicircle_x")
    assert passed and label == "semicircle_x"
    assert abs(lhs - 1.5 * np.pi) < 1e-4
    assert abs(rhs - 0.5 * np.pi**3) < 1e-3
    assert abs(ratio - 3.0 / np.pi**2) < 1e-5


def test_curve_cases_pass():
    assert curve_poincare_check(QuadraticField(0, 0, 1.0), CableArc(),
                                "cable_height")[-1]
    *_, measure, passed = curve_poincare_check(QuadraticField(0.7), Circle(1.0),
                                               "circle_constant")
    assert passed and measure == 0.0


def test_counterexample_annulus():
    rows, passed = poincare_counterexample()
    assert passed
    q = dict(rows)
    assert list(q) == ["tangential_seminorm", "boundary_mass_sq",
                       "expected_mass_sq", "node_deviation"]
    assert q["tangential_seminorm"] == 0.0
    assert q["expected_mass_sq"] == 4.0 * np.pi
    assert abs(q["boundary_mass_sq"] - 4.0 * np.pi) < 0.01 * 4.0 * np.pi
    assert q["node_deviation"] < 1e-14


# ----------------------------------------------------------------------
# spectral checks


def test_trace_estimate_square():
    space = build_space(triangulate(square_domain(), 8))
    sampled_max, L_est = trace_poincare_estimate(space)
    assert L_est >= sampled_max * (1.0 - 1e-12)
    assert 0.5 < L_est < 0.7
    assert trace_poincare_estimate(space)[1] == L_est  # deterministic


TRACE_DOMAINS = {"square": square_domain(), "cable": cable_domain(),
                 "annulus": annulus_domain(),
                 "annulus:inner": annulus_domain(ventcel_on="inner")}


def _trace_pencil(space):
    system = assemble_bilinear(space, ConstantCoefficient(1.0), ZERO)
    fr = space.free
    return (system.K_int[fr][:, fr].toarray(),
            system.M_b[fr][:, fr].toarray())


def _dense_trace_constant(space):
    K, Mb = _trace_pencil(space)
    top = len(K) - 1
    return float(np.sqrt(scipy.linalg.eigh(
        Mb, K, eigvals_only=True, subset_by_index=[top, top])[0]))


@settings(max_examples=100)
@given(domain=st.sampled_from(sorted(TRACE_DOMAINS)), n=st.integers(2, 8))
def test_trace_estimate_brackets_the_dense_constant(domain, n):
    space = build_space(triangulate(TRACE_DOMAINS[domain], n))
    sampled_max, L_est = trace_poincare_estimate(space)
    L = _dense_trace_constant(space)
    assert sampled_max <= L <= L_est <= L * (1.0 + 1e-8)


@settings(max_examples=20)
@given(n=st.integers(2, 32))
def test_square_trace_estimate_stays_below_the_closed_form(n):
    # the P1 space lies in V0 and the straight chain carries its trace
    # exactly, so the certified constant cannot pass the best one
    space = build_space(triangulate(square_domain(), n))
    assert trace_poincare_estimate(space)[1] <= verify.TRACE_L_SQUARE


# the meshes whose trace constant the suite certifies
SUITE_TRACE_MESHES = [("square", 8), ("square", 16), ("square", 32),
                      ("annulus", 16), ("cable", 16)]


def _stub_condensed_eigh(monkeypatch, result):
    """verify's dense eigen-solve of the condensed pencil returns or
    raises ``result``; compute every dense reference before this."""
    def stub(*args, **kwargs):
        if isinstance(result, Exception):
            raise result
        return np.array(result)
    monkeypatch.setattr(scipy.linalg, "eigh", stub)


# kept under its old name; the estimate no longer takes a start vector
@pytest.mark.parametrize("domain, n", SUITE_TRACE_MESHES)
def test_trace_sample_is_the_best_hat_and_starts_arpack(domain, n):
    assert list(inspect.signature(trace_poincare_estimate).parameters) \
        == ["space"]
    space = build_space(triangulate(TRACE_DOMAINS[domain], n))
    K, Mb = _trace_pencil(space)
    q = np.diagonal(Mb) / np.diagonal(K)
    sampled_max, L_est = trace_poincare_estimate(space)
    assert np.float64(sampled_max).tobytes() == np.sqrt(q.max()).tobytes()
    assert L_est >= sampled_max


def test_trace_estimate_is_nan_when_the_condensed_solve_fails(monkeypatch):
    space = build_space(triangulate(square_domain(), 4))
    _stub_condensed_eigh(monkeypatch, scipy.linalg.LinAlgError("not SPD"))
    sampled_max, L_est = trace_poincare_estimate(space)
    assert np.isnan(L_est)
    assert sampled_max > 0.0
    assert not verify._check_trace_poincare()[2]


def test_trace_estimate_rejects_an_estimate_below_the_maximum(monkeypatch):
    space = build_space(triangulate(square_domain(), 4))
    too_low = _dense_trace_constant(space) ** 2 * (1.0 - 1e-6)
    _stub_condensed_eigh(monkeypatch, [too_low])
    assert np.isnan(trace_poincare_estimate(space)[1])


def test_default_option_lus_go_through_factorize(monkeypatch):
    # every splu call with scipy's default options must come from inside
    # solver.factorize; _positive_definite's no-pivot call passes options
    real_splu, real_factorize = spla.splu, solver.factorize
    depth, counts = [0], {"factorize": 0, "stray": 0}

    def counting_factorize(matrix):
        counts["factorize"] += 1
        depth[0] += 1
        try:
            return real_factorize(matrix)
        finally:
            depth[0] -= 1

    def watching_splu(matrix, *args, **kwargs):
        if not (args or kwargs or depth[0]):
            counts["stray"] += 1
        return real_splu(matrix, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", watching_splu)
    for module in (solver, verify):
        monkeypatch.setattr(module, "factorize", counting_factorize)
    for check in (verify._check_trace_poincare, verify._check_coercivity,
                  verify._check_uniqueness):
        check()
    assert counts["stray"] == 0
    assert counts["factorize"] > 0


def test_coercivity_eigencheck_against_dense():
    space = build_space(triangulate(square_domain(), 4))
    system = assemble_bilinear(
        space, FieldCoefficient(QuadraticField(3.0, 1.0)), ZERO)
    B = system.matrix_shifted
    G = system.gram_v0()
    lam = coercivity_eigencheck(B, G)
    symB = 0.5 * (B.toarray() + B.toarray().T)
    dense = scipy.linalg.eigh(symB, G.toarray(), eigvals_only=True)[0]
    assert abs(lam - dense) < 1e-8 * max(1.0, abs(dense))
    assert lam >= system.bounds.coercivity_constant() - 1e-8


def test_coercivity_eigencheck_identity_pencil():
    G = sp.identity(8, format="csc")
    assert abs(coercivity_eigencheck(G, G) - 1.0) < 1e-12


def _dense_lambda_min(system):
    B = system.matrix_shifted.toarray()
    return scipy.linalg.eigh(0.5 * (B + B.T), system.gram_v0().toarray(),
                             eigvals_only=True, subset_by_index=[0, 0])[0]


def _positive_quadratic(raw, floor):
    # |x|, |y| <= 2 on every built-in domain, so the constant term
    # below keeps the quadratic above ``floor`` everywhere
    c00, c10, c01, c20, c11, c02 = raw
    c00 = floor + abs(c00) + 2 * (abs(c10) + abs(c01)) \
        + 4 * (abs(c20) + abs(c11) + abs(c02))
    return FieldCoefficient(QuadraticField(c00, c10, c01, c20, c11, c02))


COERCIVITY_DOMAINS = {"square": square_domain(), "annulus": annulus_domain(),
                      "cable": cable_domain()}
QUAD_RAW = st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6)


@settings(max_examples=100)
@given(domain=st.sampled_from(sorted(COERCIVITY_DOMAINS)), n=st.integers(2, 8),
       a2_raw=QUAD_RAW, a0_raw=st.one_of(st.none(), QUAD_RAW))
def test_coercivity_certificate_is_a_tight_lower_bound(domain, n, a2_raw,
                                                        a0_raw):
    space = build_space(triangulate(COERCIVITY_DOMAINS[domain], n))
    a0 = ZERO if a0_raw is None else _positive_quadratic(a0_raw, 0.0)
    system = assemble_bilinear(space, _positive_quadratic(a2_raw, 0.05), a0)
    lam = coercivity_eigencheck(system.matrix_shifted, system.gram_v0())
    dense = _dense_lambda_min(system)
    assert lam <= dense
    assert dense - lam <= 1e-8 * abs(dense)
    assert lam >= system.bounds.coercivity_constant() - 1e-8


def _square_system():
    # a2 = 0.1: the minimum lies below the interior eigenvalue 1
    space = build_space(triangulate(square_domain(), 4))
    return assemble_bilinear(space, ConstantCoefficient(0.1),
                             ConstantCoefficient(1.0))


def test_coercivity_eigencheck_rejects_an_estimate_above_the_minimum(
        monkeypatch):
    system = _square_system()
    too_high = 1.01 * _dense_lambda_min(system)
    assert too_high < 1.0
    # the condensation is about the shift 1
    _stub_condensed_eigh(monkeypatch, [too_high - 1.0])
    assert np.isnan(coercivity_eigencheck(system.matrix_shifted,
                                          system.gram_v0()))


def test_coercivity_eigencheck_is_nan_when_the_condensed_solve_fails(
        monkeypatch, tmp_path):
    system = _square_system()
    _stub_condensed_eigh(monkeypatch, scipy.linalg.LinAlgError("not SPD"))
    assert np.isnan(coercivity_eigencheck(system.matrix_shifted,
                                          system.gram_v0()))
    # the checks that read a bound FAIL, and verify exits 1, not raises
    run = cases.run("verify_seed42", tmp_path, None)
    assert run.code == 1
    failed = [line.split()[1] for line in run.stdout.splitlines()
              if line.startswith("FAIL ")]
    assert failed == ["trace_poincare", "coercivity", "continuity"]


def test_coercivity_eigencheck_stays_below_dense_annulus():
    # inverse power iteration returned 0.183304262 here, above the
    # dense minimum 0.183304217
    space = build_space(triangulate(annulus_domain(), 16))
    system = assemble_bilinear(space, ConstantCoefficient(0.1),
                               ConstantCoefficient(1.0))
    lam = coercivity_eigencheck(system.matrix_shifted, system.gram_v0())
    assert lam <= _dense_lambda_min(system)


@settings(max_examples=100)
@given(n=st.integers(2, 8), support=st.sampled_from(["empty", "partial",
                                                     "every"]),
       sign=st.sampled_from([-1, 1]), shift=st.floats(1.0, 2.0),
       seed=st.integers(0, 2**16))
def test_certified_eigenvalue_brackets_the_dense_extreme(n, support, sign,
                                                         shift, seed):
    # A = shift B + E with E nonzero on no, some or every dof: without
    # every dof the eigenvalue ``shift`` itself is in the spectrum
    rng = np.random.default_rng(seed)
    off = np.triu(rng.uniform(-1.0, 1.0, (n, n))
                  * (rng.random((n, n)) < 0.4), 1)
    off += off.T
    B = off + np.diag(1.0 + np.abs(off).sum(axis=1) + rng.random(n))
    m = {"empty": 0, "partial": n // 2, "every": n}[support]
    c = rng.choice(n, m, replace=False)
    E_cc = rng.uniform(-0.05, 0.05, (m, m))
    E_cc += E_cc.T
    E_cc[np.diag_indices(m)] = rng.choice([-0.1, 0.1], m)
    E = np.zeros((n, n))
    E[np.ix_(c, c)] = E_cc
    A = shift * B + E
    # lambda_min(B) >= 1 and |E| <= 0.8: the spectrum lies in [0.2, 2.8]
    lam = scipy.linalg.eigh(A, B, eigvals_only=True)
    extreme = lam.max() if sign > 0 else lam.min()
    bound = verify._certified_eigenvalue(sp.csr_matrix(A), sp.csr_matrix(B),
                                         sign, shift)
    assert sign * (bound - extreme) >= 0.0
    assert abs(bound - extreme) <= 1e-10 * abs(extreme)


def test_coercivity_check_repeats_at_every_seed():
    # kept under its old name; no check takes a seed now
    assert len({verify._check_coercivity()[1] for _ in range(6)}) == 1


def test_bound_checks_pass_without_arpack(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.array([]),
                                       np.array([]))
    monkeypatch.setattr(spla, "eigsh", no_convergence)
    for check in (verify._check_trace_poincare, verify._check_coercivity,
                  verify._check_continuity):
        assert check()[2]


def test_continuity_bound_holds():
    space = build_space(triangulate(square_domain(), 6))
    system = assemble_bilinear(space, ConstantCoefficient(1.0), ZERO)
    L = trace_poincare_estimate(space)[1]
    chain_dofs, bound, constant, passed = continuity_check(
        system.matrix, system.gram_v0(), system.bounds, L)
    assert passed
    assert abs(bound - 2.0) < 1e-12         # 1 + Lambda2, M = Lambda0 = 0
    # a2 = 1, a0 = 0: A == G, so nothing is condensed and the constant is 1
    assert chain_dofs == 0
    assert 1.0 <= constant <= 1.0 + 1e-10


def _dense_continuity_constant(matrix, gram):
    w, V = np.linalg.eigh(gram)
    root = (V / np.sqrt(w)) @ V.T                    # G^-1/2
    return float(np.linalg.norm(root @ matrix @ root, 2))


@settings(max_examples=100)
@given(n=st.integers(2, 8), support=st.sampled_from(["empty", "partial",
                                                     "every"]),
       scale=st.floats(0.0, 3.0), seed=st.integers(0, 2**16))
def test_continuity_constant_brackets_the_dense_norm(n, support, scale,
                                                     seed):
    # M = G + E with E unsymmetric and nonzero on no, some or every dof
    rng = np.random.default_rng(seed)
    off = np.triu(rng.uniform(-1.0, 1.0, (n, n))
                  * (rng.random((n, n)) < 0.4), 1)
    off += off.T
    G = off + np.diag(1.0 + np.abs(off).sum(axis=1) + rng.random(n))
    m = {"empty": 0, "partial": n // 2, "every": n}[support]
    c = rng.choice(n, m, replace=False)
    E = np.zeros((n, n))
    E[np.ix_(c, c)] = scale * rng.uniform(-1.0, 1.0, (m, m))
    M = G + E
    dense = _dense_continuity_constant(M, G)
    unit = SimpleNamespace(Lambda2=0.0, grad_bound=0.0, Lambda0=0.0)
    chain_dofs, _, constant, _ = continuity_check(
        sp.csr_matrix(M), sp.csr_matrix(G), unit, 0.0)
    # the dofs where M - G, as rounded, has a nonzero row or column
    D = np.abs(M - G)
    assert chain_dofs == np.count_nonzero(D.sum(axis=0) + D.sum(axis=1))
    assert dense <= constant <= dense * (1.0 + 1e-10)


@pytest.mark.parametrize("check", ["continuity", "coercivity"])
def test_continuity_fails_on_a_nan_matrix(check):
    # scipy's eigh raises ValueError, not LinAlgError, on non-finite input
    space = build_space(triangulate(square_domain(), 6))
    system = assemble_bilinear(space, ConstantCoefficient(1.0), ZERO)
    matrix = system.matrix.copy()
    matrix.data[:] = np.nan
    if check == "continuity":
        *_, constant, passed = continuity_check(
            matrix, system.gram_v0(), system.bounds, 0.6)
        assert not passed
    else:
        constant = coercivity_eigencheck(matrix, system.gram_v0())
    assert np.isnan(constant)


# ----------------------------------------------------------------------
# weak residual


def test_weak_residual_accepts_true_solution():
    prob = square_affine_problem()
    sol = solve_ventcel(prob, n=6)
    residual, passed = weak_residual_check(sol, prob)
    assert passed
    assert residual < 1e-8
    assert list(inspect.signature(weak_residual_check).parameters) \
        == ["solution", "problem"]


def test_weak_residual_of_the_cable_falls_with_the_mesh():
    # the 3-point (assembly) and 5-point (check) chain rules differ by a
    # gap that falls like h^7: 1.0e-8, 8.2e-11, 8.5e-13 at n = 16, 32,
    # 64, ratios 123 and 96, so WEAK_RESIDUAL_TOL passes from n = 32
    prob = cable_problem()
    r16, r32, r64 = (weak_residual_check(solve_ventcel(prob, n=n), prob)[0]
                     for n in (16, 32, 64))
    assert r32 * 2**6 <= r16
    assert r64 * 2**6 <= r32
    assert r32 < verify.WEAK_RESIDUAL_TOL


def test_weak_residual_flags_fault():
    prob = square_affine_problem()
    sol = solve_ventcel(prob, n=6)
    bad = sol.values.copy()
    bad[sol.space.free[0]] += 1e-3
    residual, passed = weak_residual_check(replace(sol, values=bad), prob)
    assert not passed
    assert residual > 1e-6


def test_weak_residual_zero_problem():
    prob = VentcelProblem(domain=square_domain(),
                          a2=ConstantCoefficient(1.0), a0=ZERO)
    sol = solve_ventcel(prob, n=4)
    residual, _ = weak_residual_check(sol, prob)
    assert residual == 0.0


def test_weak_residual_fails_on_nan_values():
    prob = square_affine_problem()
    sol = solve_ventcel(prob, n=8)
    residual, passed = weak_residual_check(
        replace(sol, values=np.full_like(sol.values, np.nan)), prob)
    assert np.isnan(residual)
    assert not passed


@functools.cache
def small_solve(domain):
    """(solution, problem): the affine square at n = 8, the cable at n = 6."""
    square = domain == "square"
    problem = square_affine_problem() if square else cable_problem()
    return solve_ventcel(problem, n=8 if square else 6), problem


# a fault d at free node k moves the hat e_k's gap by d times the form's
# diagonal there.  Over every free node and d = +-1e-5 ... 1e-2 the
# smallest residual / |d| measured 4.000 on the square (an interior hat:
# the P1 stiffness diagonal) and 5.238 on the cable, whose unfaulted
# residual is 9.1e-6 at n = 6
FAULT_FLOOR = 3.9


@settings(max_examples=60)
@given(domain=st.sampled_from(["square", "cable"]), k=st.integers(0, 62),
       delta=st.floats(1e-5, 1e-2), sign=st.sampled_from([-1.0, 1.0]))
def test_weak_residual_sees_a_fault_at_any_free_node(domain, k, delta, sign):
    solution, problem = small_solve(domain)
    free = solution.space.free
    bad = solution.values.copy()
    bad[free[k % len(free)]] += sign * delta
    residual, passed = weak_residual_check(replace(solution, values=bad),
                                           problem)
    assert residual >= FAULT_FLOOR * delta
    assert not passed


# the square's chains lie on y = 1 and y = 2 with 0 <= x <= 1, where the
# monomials x, y, x^2, xy, y^2 are bounded by these values
_MONOMIAL_MAX = np.array([1.0, 2.0, 1.0, 2.0, 4.0])
_COEF = st.floats(-1.0, 1.0)


def _quadratic(c, floor=None):
    """QuadraticField with coefficients c (6,); with ``floor`` the
    constant is raised so the field is at least floor on the chains."""
    c = list(c)
    if floor is not None:
        c[0] = floor + float(np.abs(c[1:]) @ _MONOMIAL_MAX)
    return FieldCoefficient(QuadraticField(*c))


@settings(max_examples=30)
@given(n=st.integers(2, 10),
       c=st.lists(_COEF, min_size=45, max_size=45).map(np.array))
def test_weak_residual_vanishes_on_exactly_integrated_data(n, c):
    # data of degree <= 2 along straight chains: both the assembly's and
    # the check's quadrature rules integrate every term exactly (f2 and
    # g2 meet a constant gradient, so they may be quadratic too)
    a2 = _quadratic(c[0:6], floor=0.5)
    a0 = _quadratic(c[6:12], floor=0.0)
    g1, phi = _quadratic(c[12:18]), _quadratic(c[18:24])
    f1 = _quadratic([*c[24:27], 0.0, 0.0, 0.0])
    f2 = _quadratic(c[27:33]), _quadratic(c[33:39])
    g2 = _quadratic(c[39:45])
    prob = VentcelProblem(domain=square_domain(), a2=a2, a0=a0, f1=f1,
                          f2=f2, g1=g1, g2=g2, phi=phi)
    sol = solve_ventcel(prob, n=n)
    assert weak_residual_check(sol, prob)[0] < 1e-8


# ----------------------------------------------------------------------
# integration by parts


def test_ibp_closed_circle_oracle():
    # u = x^2 - y^2, w = y^2, a2 = 1 + x^2/8 on |p| = 2:
    # both sides equal -16 pi by direct computation
    label, lhs, rhs, _, _, passed = ibp_identity_check(
        Circle(2.0), QuadraticField(0, 0, 0, 1.0, 0, -1.0),
        QuadraticField(0, 0, 0, 0, 0, 1.0),
        FieldCoefficient(QuadraticField(1.0, 0, 0, 0.125)), "circle")
    assert passed and label == "circle"
    assert abs(lhs + 16.0 * np.pi) < 1e-6
    assert abs(rhs + 16.0 * np.pi) < 1e-6


def test_ibp_cable_pinned_value():
    # for the harmonic cubic on the cable arc the tangential Hessian
    # vanishes, so u_ss = kappa u_nu; both quadrature routes integrate
    # genuinely different expressions yet agree to 1e-13, which pins
    # the shared value as a regression guard
    c = CableArc()
    pinned = QuadraticField(-(1.0647522420095383 ** 2), 0, 0, 1.0)
    _, lhs, _, residual, _, passed = ibp_identity_check(
        c, EXACT_SOLUTIONS["harmonic_cubic"], pinned,
        FieldCoefficient(QuadraticField(2.0, 0.5)), "cable_cubic")
    assert passed
    assert residual < 1e-9
    assert abs(lhs + 0.23899339177919) < 1e-9


def test_ibp_suite_all_pass():
    reports = ibp_identity_suite()
    assert len(reports) == 4
    labels = [r[0] for r in reports]
    assert labels.count("circle_closed") == 1
    for label, _, _, residual, tol, passed in reports:
        assert passed, label
        assert residual <= tol


# ----------------------------------------------------------------------
# compatibility and errors


def test_compatibility_check():
    rows, passed = compatibility_check()
    assert passed
    q = dict(rows)
    assert list(q) == ["max_tangential_hessian", "max_equivalence_residual",
                       "second_difference_coarse", "second_difference_fine"]
    assert q["max_tangential_hessian"] < 1e-8
    assert q["max_equivalence_residual"] < 1e-6
    assert q["second_difference_fine"] <= 0.75 * q["second_difference_coarse"]


def test_solution_errors_machine_exact_case():
    prob = square_affine_problem()
    sol = solve_ventcel(prob, n=4)
    e2, ev, et = solution_errors(sol, prob.exact)
    assert e2 < 1e-10 and ev < 1e-10 and et < 1e-10


def test_convergence_report_invariants():
    rows = [(4, 0.5, 4e-2, 2e-1, 4e-2),
            (8, 0.25, 1e-2, 1e-1, 1e-2),
            (16, 0.125, 2.5e-3, 5e-2, 2.5e-3)]
    rep = ConvergenceReport(rows)
    o2, ov, ot = rep.observed_orders
    assert abs(o2 - 2.0) < 1e-12
    assert abs(ov - 1.0) < 1e-12
    assert abs(ot - 2.0) < 1e-12
    pairs = rep.pair_orders()
    assert pairs[0] == (None, None)
    assert abs(pairs[1][0] - 2.0) < 1e-12
    assert rep.monotone()

    text = rep.csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "n,h,e_L2,e_V0,e_trace,order_L2,order_V0"
    assert len(lines) == 4
    assert lines[1].endswith(",,")          # no orders on the first row
    assert "2.000000" in lines[2]


def test_convergence_cable_gates_the_trace_order(monkeypatch):
    real = verify.solution_errors

    def halved_trace_order(solution, exact):
        e2, ev, et = real(solution, exact)
        return e2, ev, np.sqrt(et)       # still finite and decreasing
    monkeypatch.setattr(verify, "solution_errors", halved_trace_order)
    _, _, ok, detail = verify._check_convergence_cable()
    assert not ok
    assert re.search(r", trace 1\.0\d\d, ", detail), detail


def test_convergence_monotone_slack_only_on_coarsest():
    up_first = ConvergenceReport([(4, 0.5, 1.0, 1.0, 1.0),
                                  (8, 0.25, 1.04, 0.5, 0.5),
                                  (16, 0.125, 0.5, 0.25, 0.25)])
    assert up_first.monotone()
    up_later = ConvergenceReport([(4, 0.5, 1.0, 1.0, 1.0),
                                  (8, 0.25, 0.5, 0.5, 0.5),
                                  (16, 0.125, 0.51, 0.25, 0.25)])
    assert not up_later.monotone()
    noise = ConvergenceReport([(4, 0.5, 1e-15, 1.0, 1.0),
                               (8, 0.25, 5e-15, 0.5, 0.5),
                               (16, 0.125, 2e-15, 0.25, 0.25)])
    assert noise.monotone()                 # below the noise floor


def test_convergence_monotone_rejects_nan():
    rep = ConvergenceReport([(4, 0.5, 1.0, 1.0, 1.0),
                             (8, 0.25, 0.5, np.nan, 0.5),
                             (16, 0.125, 0.25, 0.25, 0.25)])
    assert not rep.monotone()


def test_cable_problem_setup():
    prob = cable_problem()
    assert prob.domain.kind == "cable"
    assert prob.f1 is None and prob.g1 is None
    assert prob.exact is not None


# ----------------------------------------------------------------------
# the full suite


def test_csv_cells_by_type():
    text = verify._csv("a,b,c,d,e,f,g,h", [
        (np.bool_(True), False, np.int64(16), 3, np.float64(0.1), 0.25, None,
         "1e-06")])
    assert text == "a,b,c,d,e,f,g,h\n1,0,16,3,0.10000000000000001,0.25,,1e-06\n"


def _nan_on_chain(solution):
    ch = solution.space.ventcel_edges
    solution.values[ch.a[len(ch.a) // 2]] = np.nan
    return solution


def _nan_e_v0(errors):
    return errors[0], np.nan, errors[2]


def _exact_is(name):
    return lambda solution, exact: exact is EXACT_SOLUTIONS[name]


# (check, verify function, nth call matching ``when``, spoiled result,
# start of the FAIL line): each puts NaN into one input of one gate and
# nowhere else
NAN_GATES = [
    ("trace_poincare", "trace_poincare_estimate", 2, None,
     lambda rep: (rep[0], np.nan), "square gaps 1 - L_est/L = 0.0171, nan,"),
    ("compatibility", "solve_ventcel", 2,
     lambda problem, n: problem.domain.kind == "cable" and n == 32,
     _nan_on_chain, "|u_tt|"),
    ("convergence_square", "solution_errors", 2, _exact_is("affine"),
     _nan_e_v0, "worst error nan"),
    ("convergence_annulus", "solution_errors", 2, _exact_is("log_radial"),
     _nan_e_v0, "order L2"),
]


@pytest.mark.parametrize("check, target, nth, when, spoil, detail",
                         NAN_GATES, ids=[g[0] for g in NAN_GATES])
def test_verify_fails_a_gate_fed_nan(check, target, nth, when, spoil, detail,
                                     tmp_path, monkeypatch):
    real = getattr(verify, target)
    matched = []

    def spoiled(*args, **kwargs):
        out = real(*args, **kwargs)
        if when is None or when(*args, **kwargs):
            matched.append(args)
            if len(matched) == nth:
                return spoil(out)
        return out
    monkeypatch.setattr(verify, target, spoiled)

    run = cases.run("verify_seed42", tmp_path, None)
    assert run.code == 1
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert run.stdout.splitlines() == summary
    failed = [line for line in summary if line.startswith("FAIL ")]
    assert len(failed) == 1
    assert failed[0].startswith(f"FAIL {check} {detail}")
    assert summary[-1] == "FAILURES: 1"
    assert set(os.listdir(tmp_path)) == set(SUITE_FILES)


# ----------------------------------------------------------------------
# the convergence table, bit for bit against the per-level loop it
# replaced


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


def loop_report(rows):
    """(pair orders, observed orders, monotone), one column and one
    level at a time."""
    pairs = [(None, None)]
    for (_, h0, a0, b0, _), (_, h1, a1, b1, _) in zip(rows, rows[1:]):
        lo = np.log(h0 / h1)
        pairs.append(
            (float(np.log(max(a0, 1e-300) / max(a1, 1e-300)) / lo),
             float(np.log(max(b0, 1e-300) / max(b1, 1e-300)) / lo)))
    x = np.log([r[1] for r in rows])
    xc = x - x.mean()
    den = float(xc @ xc)
    slopes, monotone = [], True
    for col in (2, 3, 4):
        vals = [r[col] for r in rows]
        y = np.log([max(v, 1e-300) for v in vals])
        slopes.append(float(xc @ (y - y.mean()) / den))
        monotone &= bool(np.isfinite(vals).all())
        for i, (a, b) in enumerate(zip(vals, vals[1:])):
            if a > 1e-12 and b > 1e-12 and b >= (a * 1.05 if i == 0 else a):
                monotone = False
    return pairs, tuple(slopes), monotone


ERROR_CELLS = st.one_of(st.floats(1e-15, 10.0),
                        st.sampled_from([0.0, 1e-13, np.nan, np.inf]))


@settings(max_examples=100)
@given(st.lists(st.tuples(st.floats(1e-3, 1.0), ERROR_CELLS, ERROR_CELLS,
                          ERROR_CELLS), min_size=1, max_size=12),
       st.booleans())
def test_convergence_report_is_the_per_level_loop_bits(levels, decreasing):
    if decreasing:          # refined meshes: h and most errors fall
        levels = [tuple(sorted(col, reverse=True)) for col in zip(*levels)]
        levels = list(zip(*levels))
    rows = [(8 * 2**k, *level) for k, level in enumerate(levels)]
    rep = ConvergenceReport(rows)
    with np.errstate(all="ignore"):
        pairs, slopes, monotone = loop_report(rows)
        got_pairs = rep.pair_orders()
        assert got_pairs[0] == pairs[0] == (None, None)
        assert bits(got_pairs[1:]) == bits(pairs[1:])
        assert bits(rep.observed_orders) == bits(slopes)
        assert rep.monotone() is monotone


def test_uniqueness_reports_do_not_depend_on_the_global_rng(monkeypatch):
    # onenormest draws its second start column from np.random's global
    # state: the rcond of the uniqueness sweep's 12 systems and of a cable
    # solve, and the sweep's artifact, must be the same bits under two
    # global seeds
    reports = []

    def recording(matrix, lu):
        reports.append(solver.uniqueness_diagnostic(matrix, lu))
        return reports[-1]

    monkeypatch.setattr(verify, "uniqueness_diagnostic", recording)
    state = np.random.get_state()
    runs = []
    try:
        for seed in (0, 2**32 - 1):
            np.random.seed(seed)
            seeded = np.random.get_state()
            reports.clear()
            text = verify._check_uniqueness()[1]
            reports.append(solve_ventcel(cable_problem(), n=16).rcond)
            # the draws happened: the global state moved
            assert not np.array_equal(np.random.get_state()[1], seeded[1])
            runs.append(([r.hex() for r in reports], text))
    finally:
        np.random.set_state(state)
    assert len(runs[0][0]) == 13
    assert runs[0] == runs[1]
