"""Acceptance gate: one test per headline claim, at the stated tolerance.

Each test re-derives its quantities through the public API so a pass
line in ``pytest -v`` certifies the corresponding claim end to end.
"""

import filecmp
import os
from dataclasses import replace

import cases
import numpy as np
import pytest

from ventcelfem.domain import annulus_domain, cable_domain, square_domain
from ventcelfem.fields import (
    ConstantCoefficient,
    EXACT_SOLUTIONS,
    FieldCoefficient,
    QuadraticField,
    ZERO,
)
from ventcelfem.femcore import assemble_bilinear, build_space
from ventcelfem.geometry import (CableArc, Circle, equivalence_residual,
                                 frame_derivatives)
from ventcelfem.mesh import triangulate
from ventcelfem.solver import (
    VentcelProblem,
    factorize,
    solve_ventcel,
    uniqueness_diagnostic,
)
from ventcelfem.verify import (
    cable_problem,
    coercivity_eigencheck,
    curve_poincare_check,
    ibp_identity_suite,
    interval_poincare_check,
    manufactured_convergence,
    poincare_counterexample,
    square_affine_problem,
    weak_residual_check,
)


def test_criterion_1_cable_convergence():
    # inverse-curvature diffusion, zero sources, cubic harmonic wall data:
    # L2 order >= 1.8, energy order >= 0.9, finest L2 error < 1e-3
    report = manufactured_convergence(cable_problem(), n0=8, levels=4)
    o2, ov, _ = report.observed_orders
    finest = report.rows[-1][2]
    assert o2 >= 1.8, f"L2 order {o2:.4f}"
    assert ov >= 0.9, f"energy order {ov:.4f}"
    assert finest < 1e-3, f"finest L2 error {finest:.3g}"
    assert report.monotone()


def test_criterion_2_compatibility_of_exact_solution():
    # the cubic harmonic has vanishing second tangential derivative on
    # the cable arc, and the arc-length/frame identity closes to 1e-6
    curve = CableArc()
    field = EXACT_SOLUTIONS["harmonic_cubic"]
    ts = np.linspace(curve.t0, curve.t1, 1000)
    max_tt = np.abs(frame_derivatives(field, curve, ts)[1]).max()
    max_equiv = equivalence_residual(field, curve, ts).max()
    assert max_tt < 1e-8, f"max |u_tautau| = {max_tt:.3g}"
    assert max_equiv < 1e-6, f"max equivalence residual = {max_equiv:.3g}"


def test_criterion_3_curvature_closed_form():
    curve = CableArc()
    ts = np.linspace(curve.t0, curve.t1, 1000)
    closed = curve.curvature_closed_form(ts)
    generic = curve.curvature(ts)
    rel = np.abs(closed - generic) / np.abs(generic)
    assert rel.max() < 1e-10, f"max relative mismatch {rel.max():.3g}"
    assert closed.min() > 0.0, "curvature must stay positive"


COEFFICIENT_SETS = [
    ("a2=1", ConstantCoefficient(1.0), ZERO),
    ("a2=0.1,a0=1", ConstantCoefficient(0.1), ConstantCoefficient(1.0)),
    ("a2=10", ConstantCoefficient(10.0), ZERO),
    ("a2=3+x", FieldCoefficient(QuadraticField(3.0, 1.0)), ZERO),
    ("a2=3+x+y2/4,a0=1+y2/4",
     FieldCoefficient(QuadraticField(3.0, 1.0, 0, 0, 0, 0.25)),
     FieldCoefficient(QuadraticField(1.0, 0, 0, 0, 0, 0.25))),
]

DOMAINS = [
    ("square", square_domain()),
    ("annulus", annulus_domain()),
    ("cable", cable_domain()),
]


def test_criterion_4_coercivity_with_shift():
    # the smallest Rayleigh quotient of the symmetrized, shifted form
    # against the energy Gram matrix respects the predicted constant:
    # min{1, lambda2} for constant a2, min{1, lambda2/2} otherwise
    for dom_name, dom in DOMAINS:
        space = build_space(triangulate(dom, 16))
        for label, a2, a0 in COEFFICIENT_SETS:
            system = assemble_bilinear(space, a2, a0)
            b = system.bounds
            if b.grad_bound == 0.0:
                expected = min(1.0, b.lambda2)
            else:
                assert b.grad_bound > 0.0
                expected = min(1.0, 0.5 * b.lambda2)
            assert system.bounds.coercivity_constant() == expected
            lam = coercivity_eigencheck(system.matrix_shifted,
                                        system.gram_v0())
            assert lam >= expected - 1e-8, \
                f"{dom_name}/{label}: quotient {lam:.6g} < {expected:.6g}"


def test_criterion_5_poincare_inequalities():
    interval_cases = [
        interval_poincare_check(lambda s: np.asarray(s, float), "ramp"),
        interval_poincare_check(lambda s: np.full(np.shape(s), 0.7),
                                "constant"),
        interval_poincare_check(
            lambda s: np.clip(2.0 * np.asarray(s), 0.0, 1.0), "clamped_ramp"),
    ]
    curve_cases = [
        curve_poincare_check(QuadraticField(0, 0, 1.0), CableArc(),
                             "cable_height"),
        curve_poincare_check(QuadraticField(0.7), Circle(1.0),
                             "circle_constant"),
        curve_poincare_check(QuadraticField(0, 1.0),
                             Circle(1.0, t_range=(0.0, np.pi)),
                             "semicircle_x"),
    ]
    for label, lhs, rhs, _, _, passed in interval_cases + curve_cases:
        assert passed, f"{label}: lhs {lhs} rhs {rhs}"

    cx = dict(poincare_counterexample()[0])
    assert cx["tangential_seminorm"] < 1e-10, \
        f"seminorm {cx['tangential_seminorm']:.3g}"
    rel_mass = abs(cx["boundary_mass_sq"] - 4.0 * np.pi) / (4.0 * np.pi)
    assert rel_mass <= 0.01, f"mass off by {rel_mass:.3%}"


def test_criterion_6_weak_residual_and_fault_detection():
    prob_sq = square_affine_problem()
    sol_sq = solve_ventcel(prob_sq, n=8)
    res_sq, _ = weak_residual_check(sol_sq, prob_sq)
    assert res_sq < 1e-8, f"square {res_sq:.3g}"

    prob_ca = cable_problem()
    sol_ca = solve_ventcel(prob_ca, n=32)
    res_ca, _ = weak_residual_check(sol_ca, prob_ca)
    assert res_ca < 1e-8, f"cable {res_ca:.3g}"

    bad = sol_sq.values.copy()
    bad[sol_sq.space.free[len(sol_sq.space.free) // 2]] += 1e-3
    res_bad, _ = weak_residual_check(replace(sol_sq, values=bad), prob_sq)
    assert res_bad > 1e-6, "fault injection went undetected"
    # every free dof's hat is a test field: the faulted node's hat sees
    # the fault times its P1 stiffness diagonal, 4 at an interior node of
    # the uniform mesh, against a load functional of 0 there
    assert res_bad == pytest.approx(4e-3, rel=1e-9)


def test_criterion_7_uniqueness_sweep():
    space = build_space(triangulate(square_domain(), 8))
    count = 0
    for base in (0.1, 1.0, 10.0):
        variants = [ConstantCoefficient(base),
                    FieldCoefficient(QuadraticField(base, 0.3 * base))]
        for a2 in variants:
            for a0 in (ZERO, ConstantCoefficient(1.0)):
                matrix = assemble_bilinear(space, a2, a0).matrix
                rcond = uniqueness_diagnostic(matrix, factorize(matrix))
                assert rcond > 1e-12, f"base {base}: rcond {rcond:.3g}"
                count += 1
    assert count == 12

    zero_prob = VentcelProblem(domain=square_domain(),
                               a2=ConstantCoefficient(1.0),
                               a0=ConstantCoefficient(1.0), phi=ZERO)
    zero_sol = solve_ventcel(zero_prob, n=8)
    assert np.abs(zero_sol.values).max() < 1e-14


def test_criterion_8_integration_by_parts():
    reports = ibp_identity_suite()
    assert len(reports) == 4
    assert sum(r[0].startswith("cable") for r in reports) == 3
    assert sum(r[0] == "circle_closed" for r in reports) == 1
    for label, lhs, rhs, residual, _, passed in reports:
        assert residual <= 1e-6 * max(1.0, abs(lhs), abs(rhs)), \
            f"{label}: residual {residual:.3g}"
        assert passed


def test_criterion_9_deterministic_verification(tmp_path, runs):
    code, _, _, dir_a = runs["verify_seed42"]
    dir_b = tmp_path / "run_b"
    assert code == 0
    assert cases.run("verify_seed42", dir_b, runs.inputs).code == 0
    names = sorted(os.listdir(dir_a))
    assert names == sorted(os.listdir(dir_b))
    assert "summary.txt" in names
    assert len(names) == 14
    match, mismatch, errors = filecmp.cmpfiles(str(dir_a), str(dir_b),
                                               names, shallow=False)
    assert mismatch == [] and errors == []
    assert sorted(match) == names
