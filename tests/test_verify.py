import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

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
    manufactured_convergence,
    poincare_counterexample,
    run_suite,
    solution_errors,
    square_affine_problem,
    trace_poincare_estimate,
    weak_residual_check,
)

SUITE_CHECKS = [
    "interval_poincare", "curve_poincare", "trace_poincare", "counterexample",
    "coercivity", "continuity", "weak_residual", "ibp_identity",
    "compatibility", "convergence_cable", "convergence_square",
    "convergence_annulus", "uniqueness",
]

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
    rep = interval_poincare_check(lambda s: np.asarray(s, float), 0.0, 1.0)
    assert rep.passed
    assert abs(rep.lhs - 1.0 / 3.0) < 1e-6
    assert abs(rep.rhs - 1.0) < 1e-9
    assert abs(rep.measure - 1.0) < 1e-9
    assert abs(rep.ratio - 1.0 / 3.0) < 1e-6


def test_interval_clamped_ramp_oracle():
    # v = min(2s, 1): the band is (0, 1/2); lhs = 1/6, rhs = (1/2)^2 * 2
    rep = interval_poincare_check(
        lambda s: np.clip(2.0 * np.asarray(s), 0.0, 1.0), 0.0, 1.0)
    assert rep.passed
    assert abs(rep.measure - 0.5) < 1e-9
    assert abs(rep.lhs - 1.0 / 6.0) < 1e-6
    assert abs(rep.rhs - 0.5) < 1e-9


def test_interval_constant_degenerates():
    rep = interval_poincare_check(lambda s: np.full(np.shape(s), 0.7), 0.0, 1.0)
    assert rep.passed
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.measure == 0.0
    assert rep.ratio == 0.0


def test_interval_quadratic_and_validation():
    rep = interval_poincare_check(lambda s: np.asarray(s) ** 2, 0.0, 1.0,
                                  n_samples=401)
    assert rep.passed
    with pytest.raises(ValueError):
        interval_poincare_check(lambda s: s, 0.0, 1.0, n_samples=50)


def test_curve_semicircle_oracle():
    # x on the unit semicircle: v(s) = cos s on (0, pi);
    # lhs = int (cos s + 1)^2 = 3 pi / 2, rhs = pi^2 * int sin^2 = pi^3 / 2
    rep = curve_poincare_check(QuadraticField(0.0, 1.0),
                               Circle(1.0, t_range=(0.0, np.pi)))
    assert rep.passed
    assert abs(rep.lhs - 1.5 * np.pi) < 1e-4
    assert abs(rep.rhs - 0.5 * np.pi**3) < 1e-3
    assert abs(rep.ratio - 3.0 / np.pi**2) < 1e-5


def test_curve_cases_pass():
    assert curve_poincare_check(QuadraticField(0, 0, 1.0), CableArc()).passed
    rep = curve_poincare_check(QuadraticField(0.7), Circle(1.0))
    assert rep.passed and rep.measure == 0.0
    with pytest.raises(ValueError):
        curve_poincare_check(QuadraticField(0.7), Circle(1.0), n_samples=10)


def test_counterexample_annulus():
    rep = poincare_counterexample()
    assert rep.passed
    assert rep.tangential_seminorm == 0.0
    assert rep.expected_mass_sq == 4.0 * np.pi
    assert abs(rep.boundary_mass_sq - 4.0 * np.pi) < 0.01 * 4.0 * np.pi
    assert rep.node_deviation < 1e-14


# ----------------------------------------------------------------------
# spectral checks


def test_trace_estimate_square():
    space = build_space(triangulate(square_domain(), 8))
    rep = trace_poincare_estimate(space, n_random=100, seed=0)
    assert rep.L_est >= rep.sampled_max * (1.0 - 1e-12)
    assert 0.5 < rep.L_est < 0.7
    assert rep.iterations >= 1
    rep2 = trace_poincare_estimate(space, n_random=100, seed=0)
    assert rep2.L_est == rep.L_est          # deterministic
    with pytest.raises(ValueError):
        trace_poincare_estimate(space, n_random=10)


def test_coercivity_eigencheck_against_dense():
    space = build_space(triangulate(square_domain(), 4))
    system = assemble_bilinear(
        space, FieldCoefficient(QuadraticField(3.0, 1.0)), ZERO)
    B = system.matrix_shifted
    G = system.gram_v0()
    lam = coercivity_eigencheck(B, G, seed=0)
    symB = 0.5 * (B.toarray() + B.toarray().T)
    dense = scipy.linalg.eigh(symB, G.toarray(), eigvals_only=True)[0]
    assert abs(lam - dense) < 1e-8 * max(1.0, abs(dense))
    assert lam >= system.bounds.coercivity_constant() - 1e-8


def test_coercivity_eigencheck_identity_pencil():
    G = sp.identity(8, format="csc")
    assert abs(coercivity_eigencheck(G, G, seed=1) - 1.0) < 1e-12


def test_coercivity_eigencheck_rejects_indefinite_gram():
    I = sp.identity(6, format="csc")
    with pytest.raises(ValueError):
        coercivity_eigencheck(I, -I, seed=0)


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
       a2_raw=QUAD_RAW, a0_raw=st.one_of(st.none(), QUAD_RAW),
       seed=st.integers(0, 2**16))
def test_coercivity_certificate_is_a_tight_lower_bound(domain, n, a2_raw,
                                                        a0_raw, seed):
    space = build_space(triangulate(COERCIVITY_DOMAINS[domain], n))
    a0 = ZERO if a0_raw is None else _positive_quadratic(a0_raw, 0.0)
    system = assemble_bilinear(space, _positive_quadratic(a2_raw, 0.05), a0)
    lam = coercivity_eigencheck(system.matrix_shifted, system.gram_v0(),
                                seed=seed)
    dense = _dense_lambda_min(system)
    assert lam <= dense
    assert dense - lam <= 1e-8 * abs(dense)
    assert lam >= system.bounds.coercivity_constant() - 1e-8


def _square_system():
    space = build_space(triangulate(square_domain(), 4))
    return assemble_bilinear(
        space, FieldCoefficient(QuadraticField(3.0, 1.0)), ZERO)


def test_coercivity_eigencheck_rejects_an_estimate_above_the_minimum(
        monkeypatch):
    system = _square_system()
    too_high = 1.01 * _dense_lambda_min(system)
    monkeypatch.setattr(spla, "eigsh",
                        lambda *args, **kwargs: np.array([too_high]))
    assert np.isnan(coercivity_eigencheck(system.matrix_shifted,
                                          system.gram_v0()))


def test_coercivity_eigencheck_is_nan_when_arpack_fails(monkeypatch):
    system = _square_system()

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.array([]),
                                       np.array([]))
    monkeypatch.setattr(spla, "eigsh", no_convergence)
    assert np.isnan(coercivity_eigencheck(system.matrix_shifted,
                                          system.gram_v0()))


def test_coercivity_eigencheck_stays_below_dense_annulus():
    # inverse power iteration returned 0.183304262 here, above the
    # dense minimum 0.183304217
    space = build_space(triangulate(annulus_domain(), 16))
    system = assemble_bilinear(space, ConstantCoefficient(0.1),
                               ConstantCoefficient(1.0))
    lam = coercivity_eigencheck(system.matrix_shifted, system.gram_v0(),
                                seed=42)
    assert lam <= _dense_lambda_min(system)


def test_continuity_bound_holds():
    space = build_space(triangulate(square_domain(), 6))
    system = assemble_bilinear(space, ConstantCoefficient(1.0), ZERO)
    L = trace_poincare_estimate(space, n_random=100, seed=0).L_est
    rep = continuity_check(system.matrix, system.gram_v0(), system.bounds,
                           L, n_random=100, seed=0)
    assert rep.passed
    assert abs(rep.bound - 2.0) < 1e-12     # 1 + Lambda2, M = Lambda0 = 0
    assert 0.0 < rep.max_ratio <= rep.bound
    # single-hat diagonal ratio: A == G here, so every quotient is 1
    A = system.matrix.diagonal()
    Gd = system.gram_v0().diagonal()
    assert np.abs(A / Gd - 1.0).max() < 1e-13


# ----------------------------------------------------------------------
# weak residual


def test_weak_residual_accepts_true_solution():
    prob = square_affine_problem()
    sol = solve_ventcel(prob, n=6)
    rep = weak_residual_check(sol, prob, n_random=100, seed=5)
    assert rep.passed
    assert rep.max_residual < 1e-8
    assert rep.n_fields == 100


def test_weak_residual_flags_fault():
    prob = square_affine_problem()
    sol = solve_ventcel(prob, n=6)
    bad = sol.values.copy()
    bad[sol.space.free[0]] += 1e-3
    rep = weak_residual_check(sol, prob, n_random=100, seed=5, values=bad)
    assert not rep.passed
    assert rep.max_residual > 1e-6


def test_weak_residual_zero_problem():
    prob = VentcelProblem(domain=square_domain(),
                          a2=ConstantCoefficient(1.0), a0=ZERO)
    sol = solve_ventcel(prob, n=4)
    rep = weak_residual_check(sol, prob, n_random=100, seed=0)
    assert rep.max_residual == 0.0


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
       c=st.lists(_COEF, min_size=27, max_size=27).map(np.array))
def test_weak_residual_vanishes_on_exactly_integrated_data(n, c):
    # data of degree <= 2 along straight chains: both the assembly's and
    # the check's quadrature rules integrate every term exactly
    a2 = _quadratic(c[0:6], floor=0.5)
    a0 = _quadratic(c[6:12], floor=0.0)
    g1, phi = _quadratic(c[12:18]), _quadratic(c[18:24])
    f1 = _quadratic([*c[24:27], 0.0, 0.0, 0.0])
    prob = VentcelProblem(domain=square_domain(), a2=a2, a0=a0, f1=f1,
                          g1=g1, phi=phi)
    sol = solve_ventcel(prob, n=n)
    assert weak_residual_check(sol, prob).max_residual < 1e-8


# ----------------------------------------------------------------------
# integration by parts


def test_ibp_closed_circle_oracle():
    # u = x^2 - y^2, w = y^2, a2 = 1 + x^2/8 on |p| = 2:
    # both sides equal -16 pi by direct computation
    rep = ibp_identity_check(
        Circle(2.0), QuadraticField(0, 0, 0, 1.0, 0, -1.0),
        QuadraticField(0, 0, 0, 0, 0, 1.0),
        FieldCoefficient(QuadraticField(1.0, 0, 0, 0.125)))
    assert rep.passed
    assert abs(rep.lhs + 16.0 * np.pi) < 1e-6
    assert abs(rep.rhs + 16.0 * np.pi) < 1e-6


def test_ibp_cable_pinned_value():
    # for the harmonic cubic on the cable arc the tangential Hessian
    # vanishes, so u_ss = kappa u_nu; both quadrature routes integrate
    # genuinely different expressions yet agree to 1e-13, which pins
    # the shared value as a regression guard
    c = CableArc()
    pinned = QuadraticField(-(1.0647522420095383 ** 2), 0, 0, 1.0)
    rep = ibp_identity_check(c, EXACT_SOLUTIONS["harmonic_cubic"], pinned,
                             FieldCoefficient(QuadraticField(2.0, 0.5)))
    assert rep.passed
    assert rep.residual < 1e-9
    assert abs(rep.lhs + 0.23899339177919) < 1e-9


def test_ibp_suite_all_pass():
    reports = ibp_identity_suite()
    assert len(reports) == 4
    labels = [r.label for r in reports]
    assert labels.count("circle_closed") == 1
    for rep in reports:
        assert rep.passed, rep.label
        assert rep.residual <= rep.tol


def test_ibp_rejects_nonvanishing_open_endpoints():
    with pytest.raises(ValueError):
        ibp_identity_check(CableArc(), QuadraticField(0, 1.0),
                           QuadraticField(1.0), ConstantCoefficient(1.0))
    with pytest.raises(ValueError):
        ibp_identity_check(Circle(2.0), QuadraticField(0, 1.0),
                           QuadraticField(1.0), ConstantCoefficient(1.0),
                           n_panels=7)


# ----------------------------------------------------------------------
# compatibility and errors


def test_compatibility_check():
    rep = compatibility_check()
    assert rep.passed
    assert rep.max_tangential_hessian < 1e-8
    assert rep.max_equivalence_residual < 1e-6
    assert rep.second_difference_fine <= 0.75 * rep.second_difference_coarse


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


def test_convergence_report_rejects_bad_h():
    with pytest.raises(ValueError):
        ConvergenceReport([(4, 0.5, 1, 1, 1), (8, 0.5, 0.5, 0.5, 0.5)])


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


def test_convergence_report_needs_three_rows():
    rep = ConvergenceReport([(4, 0.5, 1, 1, 1), (8, 0.25, 0.5, 0.5, 0.5)])
    with pytest.raises(ValueError):
        rep.observed_orders


def test_manufactured_convergence_validation():
    prob = square_affine_problem()
    with pytest.raises(ValueError):
        manufactured_convergence(prob, n0=4, levels=2)
    bare = VentcelProblem(domain=square_domain(),
                          a2=ConstantCoefficient(1.0), a0=ZERO)
    with pytest.raises(ValueError):
        manufactured_convergence(bare, n0=4, levels=3)


def test_cable_problem_setup():
    prob = cable_problem()
    assert prob.domain.kind == "cable"
    assert prob.f1 is None and prob.g1 is None
    assert prob.exact is not None


# ----------------------------------------------------------------------
# the full suite


def test_run_suite_green(tmp_path):
    out = str(tmp_path / "reports")
    result = run_suite(out, seed=42)
    assert result.passed
    assert [name for name, _, _ in result.lines] == SUITE_CHECKS
    assert all(ok for _, ok, _ in result.lines)
    for fname in SUITE_FILES:
        assert os.path.exists(os.path.join(out, fname)), fname
    with open(os.path.join(out, "summary.txt")) as fh:
        summary = fh.read()
    assert summary.splitlines()[-1] == "ALL PASS"
    assert summary.count("PASS") == len(SUITE_CHECKS) + 1
