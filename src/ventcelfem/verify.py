"""Verification layer: inequality oracles, eigenvalue checks, residuals.

Everything here re-derives its numbers independently of the assembly
path in femcore: quadrature rules are one order higher (6-point
interior, 5-point boundary), the trace and continuity constants are
certified upper bounds and the coercivity constant a certified lower
bound (each exact by condensation onto the chain, then checked by an
inertia count), and the weak-form residual is evaluated without
touching the assembled matrix.

The suite is the table ``CHECKS`` of (name, check) pairs.  Each check
takes no argument and returns (artifact file name, artifact text,
verdict, detail).  The one random draw is scipy's ``onenormest`` in
the uniqueness diagnostic: its second start column comes from numpy's
global generator, yet its rcond repeats bit for bit under any seed
tried.  ``run_suite`` writes every artifact and a PASS/FAIL summary
line per check.  A gate that meets NaN fails.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import (CABLE_HALF_WIDTH, CableArc, Circle,
                       equivalence_residual, frame_derivatives)
from .domain import annulus_domain, cable_domain, square_domain
from .fields import (
    EXACT_SOLUTIONS,
    ConstantCoefficient,
    FieldCoefficient,
    InverseCurvature,
    ProductField,
    QuadraticField,
    ZERO,
)
from .femcore import assemble_bilinear, build_space, triangle_geometry
from .mesh import _fmt, _write_text, triangulate
from .solver import (
    VentcelProblem,
    factorize,
    manufactured_problem,
    solve_ventcel,
    uniqueness_diagnostic,
)

RELATIVE_SLACK = 1e-8            # inequality checks pass iff lhs <= rhs*(1+slack)
# weak_residual_check passes iff the largest scaled gap is below this
WEAK_RESIDUAL_TOL = 1e-8
# relative distances from a condensed eigenvalue estimate at which
# _certified_eigenvalue tries, in order, to certify a bound beyond it
_CERTIFY_MARGINS = (1e-13, 1e-12, 1e-11, 1e-10)

# independent quadrature: 6-point degree-4 triangle rule
_D6A = 0.445948490915965
_D6B = 0.108103018168070
_D6C = 0.091576213509771
_D6D = 0.816847572980459
DUNAVANT6_BARY = np.array([
    [_D6A, _D6A, _D6B], [_D6A, _D6B, _D6A], [_D6B, _D6A, _D6A],
    [_D6C, _D6C, _D6D], [_D6C, _D6D, _D6C], [_D6D, _D6C, _D6C],
])
DUNAVANT6_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)

# 5-point Gauss-Legendre on [0, 1], exact to degree 9
_G5X = np.array([-0.9061798459386640, -0.5384693101056831, 0.0,
                 0.5384693101056831, 0.9061798459386640])
_G5W = np.array([0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
                 0.4786286704993665, 0.2369268850561891])
GAUSS5_XI = 0.5 * (1.0 + _G5X)
GAUSS5_W = 0.5 * _G5W


# ---------------------------------------------------------------------------
# Poincare-type inequality oracles


def _level_set_inequality(svals, vvals, slopes, label):
    """Core of the interval/curve checks on an equispaced arc grid.

    The level band is derived from the sampled function itself: with
    v0 = min v and v1 = max v, a subinterval belongs to the strict set
    when its midpoint value lies in (v0, v1) with a 1e-12 margin.  The
    squared-deviation integral uses the trapezoid rule, the slope
    integral the per-subinterval mean slope; both are restricted to
    the included subintervals.  Returns the CSV row ``(label, lhs, rhs,
    ratio, measure, passed)``; measure is the Lebesgue measure of the
    strict level set.
    """
    ds = svals[1] - svals[0]
    v0 = float(vvals.min())
    v1 = float(vvals.max())
    tol = 1e-12 * max(1.0, v1 - v0)
    mid = 0.5 * (vvals[:-1] + vvals[1:])
    member = (mid > v0 + tol) & (mid < v1 - tol)

    dev2 = (vvals - v0) ** 2
    lhs = float(np.sum(ds * 0.5 * (dev2[:-1] + dev2[1:]) * member))
    slope_int = float(np.sum(ds * slopes**2 * member))
    measure = float(ds * np.count_nonzero(member))
    rhs = measure**2 * slope_int
    ratio = lhs / rhs if rhs > 0.0 else (0.0 if lhs == 0.0 else np.inf)
    return label, lhs, rhs, ratio, measure, lhs <= rhs * (1.0 + RELATIVE_SLACK)


def interval_poincare_check(v, label="interval"):
    """Deviation-from-minimum bound for a function on [0, 1].

    Checks integral of (v - min v)^2 over the strict level band
    against |band|^2 times the integral of (v')^2 there.  Slopes are
    forward differences on a grid of 20001 equispaced samples, which
    integrate (v')^2 exactly for piecewise-linear v aligned with the
    grid.  ``v`` must be vectorized.  Returns ``(label, lhs, rhs, ratio,
    measure, passed)``.
    """
    s = np.linspace(0.0, 1.0, 20001)
    vv = v(s)
    slopes = np.diff(vv) / np.diff(s)
    return _level_set_inequality(s, vv, slopes, label)


def curve_poincare_check(w, curve, label="curve"):
    """Same bound for the restriction of a plane field to a curve.

    Takes 4096 samples uniform in arc length; the tangential derivative
    is the analytic tau . grad w, evaluated at subinterval midpoints.
    """
    L = curve.total_length
    s = np.linspace(0.0, L, 4096)
    t = curve.param_at_arc_length(s)
    vv = w.value(curve.point(t))
    smid = 0.5 * (s[:-1] + s[1:])
    tmid = curve.param_at_arc_length(smid)
    slopes = frame_derivatives(w, curve, tmid)[0]
    return _level_set_inequality(s, vv, slopes, label)


def poincare_counterexample():
    """Radial ramp on an annulus: zero tangential energy, order-one trace.

    On the default annulus (R0 = 1, R1 = 2, Ventcel outer circle) at
    n = 16, the nodal interpolant of (|x| - R0)/(R1 - R0) is constant 1
    on the outer chain, so its tangential seminorm vanishes identically
    while its squared trace norm approaches the outer perimeter.  No
    bound of the trace norm by the tangential seminorm alone can hold.

    Returns ``(rows, passed)``; rows are ordered (quantity, value) pairs:
    the seminorm, the squared trace norm of the interpolant, the
    expected value (outer perimeter 2 pi R1) and max |w - 1| over the
    outer-circle nodes.
    """
    dom = annulus_domain()
    r_inner, r_outer = dom.params["r_inner"], dom.params["r_outer"]
    mesh = triangulate(dom, 16)
    space = build_space(mesh)
    system = assemble_bilinear(space, ConstantCoefficient(1.0), ZERO)
    r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    w = (r - r_inner) / (r_outer - r_inner)
    # per-edge form of w' S_b w: no cancellation when neighbors agree
    ch = space.ventcel_edges
    semi = float(np.sqrt(np.sum((w[ch.b] - w[ch.a]) ** 2 / ch.ell)))
    mass = float(w @ system.M_b.dot(w))
    expected = 2.0 * np.pi * r_outer
    outer = np.unique(np.concatenate([ch.a, ch.b]))
    node_dev = float(np.abs(w[outer] - 1.0).max())
    passed = (semi < 1e-10
              and abs(mass - expected) <= 0.01 * expected
              and node_dev < 1e-12)
    return [("tangential_seminorm", semi), ("boundary_mass_sq", mass),
            ("expected_mass_sq", expected), ("node_deviation", node_dev)], passed


# ---------------------------------------------------------------------------
# pencil eigenvalues


def _positive_definite(matrix) -> bool:
    """Inertia certificate that the symmetric ``matrix`` is positive definite.

    LU without pivoting under a symmetric ordering: with perm_r == perm_c,
    U = D L^T and the signs of diag(U) are the inertia (Sylvester's law).
    The proof is for the matrix the rounded factorization represents;
    ``_CERTIFY_MARGINS`` leave room for that rounding.
    """
    try:
        lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:
        return False
    return bool(np.array_equal(lu.perm_r, lu.perm_c)
                and np.all(lu.U.diagonal() > 0.0))


def _condensed(A, B, shift):
    """``(c, S, E_cc, outside)`` for the pencil (A, B), B SPD: c the dofs off
    which E = A - shift B is zero, S = B_cc - B_ci B_ii^-1 B_ic (one
    ``factorize``), and whether some dof i lies outside c.  On fields zero
    on c, E vanishes; on their B-orthogonal complement it is (E_cc, S)."""
    E = A - shift * B
    c = np.union1d(*E.nonzero())
    i = np.setdiff1d(np.arange(A.shape[0]), c)
    S = B[c][:, c].toarray()
    if len(i):
        B_ic = B[i][:, c].toarray()
        S -= B_ic.T @ factorize(B[i][:, i]).solve(B_ic)
    return c, S, E[c][:, c].toarray(), bool(len(i))


def _dense_extreme(a, b, sign, extra):
    """The largest (``sign`` +1) or smallest (-1) of the eigenvalues of
    the dense pencil (a, b) and the values ``extra``; nan where ``eigh``
    raises: b not positive definite, or an entry not finite (ValueError)."""
    try:
        lam = np.append(scipy.linalg.eigh(a, b, eigvals_only=True), extra)
    except (scipy.linalg.LinAlgError, ValueError):
        return float("nan")
    return float(lam.max() if sign > 0 else lam.min())


def _certify(A, B, sign, est) -> float:
    """The first est + sign delta |est|, delta in ``_CERTIFY_MARGINS``, with
    sign (bound B - A) certified positive definite, or nan."""
    for delta in _CERTIFY_MARGINS:
        bound = est + sign * delta * abs(est)
        if _positive_definite(sign * (bound * B - A)):
            return bound
    return float("nan")


def _certified_eigenvalue(A, B, sign, shift) -> float:
    """Certified bound on the largest (``sign`` +1, from above) or smallest
    (-1, from below) eigenvalue of the pencil (A, B), B SPD: by
    ``_condensed``, ``shift`` (if a dof lies outside c) or shift + an
    eigenvalue of the dense pencil (E_cc, S)."""
    _, S, E_cc, outside = _condensed(A, B, shift)
    return _certify(A, B, sign,
                    shift + _dense_extreme(E_cc, S, sign, [0.0] * outside))


def trace_poincare_estimate(space):
    """Bracket the best constant in |v|_chain <= L |Dv|_domain over V0.

    Returns ``(sampled_max, L_est)``, functions of the mesh alone.  L^2
    is the top eigenvalue of the pencil (boundary mass Mb, interior
    stiffness K) on the free dofs.  ``sampled_max``, a lower value, is
    the best hat quotient (Mb)_ii / K_ii.  ``L_est``, the root of the
    certified upper bound on L^2, is an upper bound, or nan.
    """
    system = assemble_bilinear(space, ConstantCoefficient(1.0), ZERO)
    fr = space.free
    K = system.K_int[fr][:, fr].tocsc()
    Mb = system.M_b[fr][:, fr].tocsr()
    q = Mb.diagonal() / K.diagonal()
    return (float(np.sqrt(q.max())),
            float(np.sqrt(_certified_eigenvalue(Mb, K, 1, 0.0))))


def coercivity_eigencheck(matrix, gram) -> float:
    """Certified lower bound on the min eigenvalue of sym(matrix) vs gram.

    Only the symmetric part enters, since the quadratic form discards
    the skew part.  It shares gram's interior part: the shift is 1.
    """
    return _certified_eigenvalue(0.5 * (matrix + matrix.T), gram, -1, 1.0)


def continuity_check(matrix, gram, bounds, L_est):
    """Exact discrete continuity constant against 1 + Lam2 + M L + Lam0 L^2.

    The bound takes each interior/tangential/coupling/zero-order piece
    of the form through the energy norm, using the trace constant to
    pull chain values back to interior gradients.  The constant is
    ||G^-1/2 A G^-1/2||_2: by ``_condensed``, 1 (if a dof lies outside c)
    or ||S^-1/2 P S^-1/2||_2, P = S + E_cc, the root of the top
    eigenvalue of (P^T S^-1 P, S).  ``_certify`` raises it on the pencil
    ([[0, A], [A^T, 0]], diag(G, G)), whose top eigenvalue is that norm.
    Returns ``(chain_dofs, bound, constant, passed)``.
    """
    bound = (1.0 + bounds.Lambda2 + bounds.grad_bound * L_est
             + bounds.Lambda0 * L_est**2)
    c, S, E_cc, outside = _condensed(matrix, gram, 1.0)
    P = S + E_cc
    sq = _dense_extreme(P.T @ np.linalg.solve(S, P), S, 1, [1.0] * outside)
    constant = _certify(sp.bmat([[None, matrix], [matrix.T, None]]),
                        sp.block_diag((gram, gram)), 1, float(np.sqrt(sq)))
    return len(c), bound, constant, constant <= bound * (1.0 + RELATIVE_SLACK)


# ---------------------------------------------------------------------------
# independent weak-form residual


def _weak_form(space, problem, u):
    """(q, ell): the form applied to nodal values u, the load functional."""
    tris = space.mesh.triangles
    area, grads = triangle_geometry(space.mesh)
    q = np.zeros(space.n_nodes)                        # the form applied to u
    du = np.einsum("ti,tid->td", u[tris], grads)       # (T, 2)
    np.add.at(q, tris, area[:, None] * np.einsum("td,tid->ti", du, grads))
    ell = np.zeros(space.n_nodes)                      # the load functional
    phys = np.einsum("qk,tkd->tqd", DUNAVANT6_BARY,
                     space.mesh.nodes.take(tris, axis=0))
    if problem.f1 is not None:
        vals = problem.f1.eval_points(phys)
        weights = area[:, None] * DUNAVANT6_W[None, :]
        np.add.at(ell, tris, np.einsum("tq,qk->tk", weights * vals,
                                       DUNAVANT6_BARY))
    if problem.f2 is not None:
        wx = area * (problem.f2[0].eval_points(phys) @ DUNAVANT6_W)
        wy = area * (problem.f2[1].eval_points(phys) @ DUNAVANT6_W)
        np.add.at(ell, tris, -(grads[..., 0] * wx[:, None]
                               + grads[..., 1] * wy[:, None]))

    ch = space.ventcel_edges
    tq = ch.points(GAUSS5_XI)
    wq = ch.ell[:, None] * GAUSS5_W
    phi = np.stack([1.0 - GAUSS5_XI, GAUSS5_XI])       # (2, q)
    dphi = np.array([-1.0, 1.0]) / ch.ell[:, None]     # (E, 2)
    a2q = ch.on_curves(problem.a2.eval_curve, tq)[:, None]
    da2q = ch.on_curves(problem.a2.tangential_deriv, tq)[:, None]
    a0q = ch.on_curves(problem.a0.eval_curve, tq)[:, None]
    ua, ub = u[ch.a][:, None], u[ch.b][:, None]
    uq = (ua * (1.0 - GAUSS5_XI) + ub * GAUSS5_XI)[:, None]
    dus = ((ub - ua) / ch.ell[:, None])[:, None]
    # (E, 2, q): test functions of nodes a and b on every edge
    integrand = wq[:, None] * (a2q * dphi[:, :, None] * dus + phi * da2q * dus
                               + a0q * uq * phi)
    ch.add_to(q, np.sum(integrand, axis=-1))
    chain = []
    if problem.g1 is not None:
        g1q = ch.on_curves(problem.g1.eval_curve, tq)
        chain.append(np.sum((wq * g1q)[:, None] * phi, axis=-1))
    if problem.g2 is not None:
        g2q = ch.on_curves(problem.g2.eval_curve, tq)
        chain.append(-(np.sum(wq * g2q, axis=-1)[:, None] * dphi))
    if chain:
        ch.add_to(ell, *chain)
    return q, ell


def weak_residual_check(solution, problem, values=None):
    """Test the solved values in the weak equation, fresh quadrature.

    Both sides of the variational identity are recomputed independently
    of the assembled system: interior stiffness exactly for piecewise-
    linear gradients, interior loads by the 6-point rule, and every
    chain term by the 5-point rule on each edge with coefficients and
    loads sampled on the exact curve.  The test fields are the hat
    functions of the free dofs, a basis of the discrete V0: on each the
    scaled gap |q_i - ell_i| / (1 + |ell_i|) must stay below
    ``WEAK_RESIDUAL_TOL``.  They vanish on the walls, so wrong wall
    values go unseen.  On the cable the assembly's 3-point and this
    5-point chain rule differ by about h^7 (1.2e-6, 1.0e-8, 8.2e-11 at
    n = 8, 16, 32), so the tolerance passes the correct cable solve only
    from n = 32, verify's mesh.  ``values`` overrides the nodal solution
    (fault injection).  Returns ``(max_residual, passed)``.
    """
    fr = solution.space.free
    q, ell = _weak_form(solution.space, problem,
                        solution.values if values is None else values)
    worst = float(np.max(np.abs(q[fr] - ell[fr]) / (1.0 + np.abs(ell[fr]))))
    return worst, worst < WEAK_RESIDUAL_TOL


# ---------------------------------------------------------------------------
# tangential integration-by-parts identity


def ibp_identity_check(curve, u_field, w_field, a2, label="ibp"):
    """Dense-quadrature check of the tangential product-rule identity.

        int (a2 w' + w a2') u' ds  =  - int a2 w u'' ds

    Valid when the curve closes or the test field vanishes at both
    endpoints; the boundary term of the integration by parts then
    drops.  Composite Simpson on 8192 panels in the curve parameter
    with the arc measure; all derivatives analytic.  Returns the CSV row
    ``(label, lhs, rhs, residual, tol, passed)``.
    """
    t = np.linspace(curve.t0, curve.t1, 8192 + 1)
    sp = curve.speed(t)
    p = curve.point(t)
    wv = w_field.value(p)
    dw = frame_derivatives(w_field, curve, t)[0]
    du, u_tt, u_nu, kappa = frame_derivatives(u_field, curve, t)
    d2u = u_tt + kappa * u_nu
    a2v = a2.eval_curve(curve, t)
    da2 = a2.tangential_deriv(curve, t)

    weights = np.ones(len(t))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (t[1] - t[0]) / 3.0

    lhs = float(np.sum(weights * (a2v * dw + wv * da2) * du * sp))
    rhs = float(-np.sum(weights * a2v * wv * d2u * sp))
    tol = 1e-6 * max(1.0, abs(lhs), abs(rhs))
    res = abs(lhs - rhs)
    return label, lhs, rhs, res, tol, res <= tol


def ibp_identity_suite() -> list:
    """Three vanishing-endpoint pairs on the cable arc, one closed case."""
    c = CABLE_HALF_WIDTH
    cable = CableArc()
    pinned = QuadraticField(-c * c, 0.0, 0.0, 1.0)        # x^2 - c^2
    a2_cable = FieldCoefficient(QuadraticField(2.0, 0.5))  # 2 + x/2 > 0
    cases = [
        ("cable_cubic", EXACT_SOLUTIONS["harmonic_cubic"], pinned),
        ("cable_saddle", QuadraticField(0, 0, 0, 1.0, 0, -1.0),
         ProductField(pinned, QuadraticField(0.0, 0.0, 1.0))),
        ("cable_mixed", QuadraticField(0, 0, 0, 0, 1.0),
         ProductField(pinned, QuadraticField(1.0, 1.0))),
    ]
    out = [ibp_identity_check(cable, u, w, a2_cable, label=lbl)
           for lbl, u, w in cases]
    circle = Circle(2.0, normal_sign=-1)
    out.append(ibp_identity_check(
        circle,
        QuadraticField(0, 0, 0, 1.0, 0, -1.0),
        QuadraticField(0, 0, 0, 0, 1.0),
        FieldCoefficient(QuadraticField(1.0, 0, 0, 0.125)),
        label="circle_closed"))
    return out


# ---------------------------------------------------------------------------
# cable compatibility


def compatibility_check():
    """The reference cubic has zero tangential-tangential Hessian on
    the cable arc, making the homogeneous chain condition exact; the
    finite-difference arc second derivative must match the frame
    decomposition (both at 1000 parameter samples), and the discrete
    trace's scaled second differences shrink with the mesh.

    Returns ``(rows, passed)``; rows are ordered (quantity, value) pairs:
    max |u_tt| of the exact field, max |u_ss - u_tt - k u_nu| by
    differences, and the second differences at n = 16 and n = 32.
    """
    curve = CableArc()
    exact = EXACT_SOLUTIONS["harmonic_cubic"]
    t = np.linspace(curve.t0, curve.t1, 1000)
    max_tt = float(np.abs(frame_derivatives(exact, curve, t)[1]).max())
    max_equiv = float(equivalence_residual(exact, curve, t).max())

    coarse, fine = (_chain_second_difference(solve_ventcel(cable_problem(), n))
                    for n in (16, 32))
    passed = (max_tt < 1e-8 and max_equiv < 1e-6 and fine <= 0.75 * coarse)
    return [("max_tangential_hessian", max_tt),
            ("max_equivalence_residual", max_equiv),
            ("second_difference_coarse", coarse),
            ("second_difference_fine", fine)], passed


def _chain_second_difference(solution) -> float:
    """Max |u_{j+1} - 2 u_j + u_{j-1}| / h over interior chain nodes."""
    ch = solution.space.ventcel_edges
    worst = [0.0]
    for _, rows in ch.curves:
        vals = solution.values[np.concatenate([ch.a[rows][:1], ch.b[rows]])]
        h = float(np.mean(ch.ell[rows]))
        worst.append(np.abs(vals[2:] - 2.0 * vals[1:-1] + vals[:-2]).max() / h)
    return float(np.max(worst))                       # propagates NaN


# ---------------------------------------------------------------------------
# manufactured-solution errors and convergence


def solution_errors(solution, exact):
    """(L2 domain, energy-seminorm, L2 chain-trace) errors vs a field.

    Interior integrals use the 6-point degree-4 rule, chain integrals
    the 5-point rule with the exact arc measure, one order above the
    assembly rules so quadrature cannot mask the discretization error.
    """
    space = solution.space
    mesh = space.mesh
    u = solution.values
    tris = mesh.triangles
    area, grads = triangle_geometry(mesh)
    phys = np.einsum("qk,tkd->tqd", DUNAVANT6_BARY, mesh.nodes.take(tris, axis=0))
    w6 = area[:, None] * DUNAVANT6_W[None, :]

    uh = np.einsum("tk,qk->tq", u[tris], DUNAVANT6_BARY)
    diff = exact.value(phys) - uh
    e_l2 = float(np.sqrt(np.sum(w6 * diff**2)))

    gh = np.einsum("ti,tid->td", u[tris], grads)
    gd = exact.grad(phys) - gh[:, None, :]
    grad_sq = float(np.sum(w6 * np.einsum("tqd,tqd->tq", gd, gd)))

    ch = space.ventcel_edges
    tq = ch.points(GAUSS5_XI)
    sp = ch.on_curves(lambda curve, t: curve.speed(t), tq)
    wq = sp * (ch.tb - ch.ta)[:, None] * GAUSS5_W
    trace = FieldCoefficient(exact)
    ex = ch.on_curves(trace.eval_curve, tq)
    dex = ch.on_curves(trace.tangential_deriv, tq)
    ua, ub = u[ch.a][:, None], u[ch.b][:, None]
    uhq = ua * (1.0 - GAUSS5_XI) + ub * GAUSS5_XI
    duh = (ub - ua) / ((ch.tb - ch.ta)[:, None] * sp)
    trace_sq = float(np.sum(wq * (ex - uhq) ** 2))
    tang_sq = float(np.sum(wq * (dex - duh) ** 2))
    e_v0 = float(np.sqrt(grad_sq + tang_sq))
    e_trace = float(np.sqrt(trace_sq))
    return e_l2, e_v0, e_trace


@dataclass
class ConvergenceReport:
    rows: list                     # (n, h, e_L2, e_V0, e_trace)

    def _columns(self):
        """h and the three error columns, as C-contiguous rows."""
        cols = np.array(self.rows, dtype=float).T.copy()
        return cols[1], cols[2:]

    def pair_orders(self):
        """Per-refinement orders (None on the first row)."""
        h, err = self._columns()
        err = np.maximum(err[:2], 1e-300)
        orders = np.log(err[:, :-1] / err[:, 1:]) / np.log(h[:-1] / h[1:])
        return [(None, None), *zip(*orders.tolist())]

    @property
    def observed_orders(self):
        """Least-squares slopes of log error against log h."""
        h, err = self._columns()
        x, y = np.log(h), np.log(np.maximum(err, 1e-300))
        xc = x - x.mean()
        slopes = np.vecdot(xc, y - y.mean(axis=1, keepdims=True)) / (xc @ xc)
        return tuple(slopes.tolist())

    def monotone(self) -> bool:
        """Finite errors that decrease across levels.  Pairs with an
        error at or below 1e-12 (the rounding floor) are skipped, and
        the coarsest pair may grow by up to 5 %."""
        err = self._columns()[1]
        a, b = err[:, :-1], err[:, 1:]
        limit = np.hstack([a[:, :1] * 1.05, a[:, 1:]])
        grows = (a > 1e-12) & (b > 1e-12) & (b >= limit)
        return bool(np.isfinite(err).all() and not grows.any())

    def csv_text(self) -> str:
        rows = [(*row, *("" if o is None else format(o, ".6f") for o in pair))
                for row, pair in zip(self.rows, self.pair_orders())]
        return _csv("n,h,e_L2,e_V0,e_trace,order_L2,order_V0", rows)


def manufactured_convergence(problem, n0=8, levels=4) -> ConvergenceReport:
    """Solve on meshes n0, 2 n0, ... and tabulate errors."""
    rows = []
    for n in (n0 * 2**k for k in range(levels)):
        sol = solve_ventcel(problem, n=n)
        rows.append((n, sol.space.h, *solution_errors(sol, problem.exact)))
    return ConvergenceReport(rows)


# ---------------------------------------------------------------------------
# reference problems


def cable_problem() -> VentcelProblem:
    """Zero-load cable membrane: chain condition balanced by curvature.

    With a2 the curvature reciprocal and the harmonic cubic's trace as
    wall data the exact solution is the cubic itself: its
    tangential-tangential Hessian vanishes along the arc, so the
    homogeneous chain equation holds with no forcing anywhere.
    """
    exact = EXACT_SOLUTIONS["harmonic_cubic"]
    return VentcelProblem(
        domain=cable_domain(), a2=InverseCurvature(), a0=ZERO,
        phi=FieldCoefficient(exact), exact=exact)


def square_affine_problem() -> VentcelProblem:
    """Affine exact solution on the square; P1 reproduces it exactly."""
    return manufactured_problem(
        square_domain(), "affine",
        a2=FieldCoefficient(QuadraticField(3.0, 1.0)),
        a0=FieldCoefficient(QuadraticField(1.0, 0, 0, 0, 0, 0.25)))


def annulus_log_problem() -> VentcelProblem:
    """Radially symmetric harmonic solution on the annulus."""
    return manufactured_problem(
        annulus_domain(), "log_radial",
        a2=ConstantCoefficient(1.0), a0=ConstantCoefficient(1.0))


# ---------------------------------------------------------------------------
# the suite: one function per check, () -> (artifact, text, ok, detail)


@dataclass
class SuiteResult:
    passed: bool
    lines: list                    # (name, ok, detail)

    def summary_text(self) -> str:
        out = [f"{'PASS' if ok else 'FAIL'} {name} {detail}"
               for name, ok, detail in self.lines]
        n_fail = sum(not ok for _, ok, _ in self.lines)
        out.append("ALL PASS" if n_fail == 0 else f"FAILURES: {n_fail}")
        return "\n".join(out) + "\n"


def _cell(x) -> str:
    """One CSV cell: floats by ``_fmt``, bools 0/1, None empty."""
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _fmt(x)
    return "" if x is None else x


def _csv(header, rows) -> str:
    return "\n".join([header] + [",".join(map(_cell, r)) for r in rows]) + "\n"


def _interval_cases():
    return [interval_poincare_check(lambda s: s, label="ramp"),
            interval_poincare_check(lambda s: np.full(s.shape, 0.7),
                                    label="constant"),
            interval_poincare_check(lambda s: np.clip(2.0 * s, 0.0, 1.0),
                                    label="clamped_ramp")]


def _curve_cases():
    return [curve_poincare_check(QuadraticField(0.0, 0.0, 1.0), CableArc(),
                                 label="cable_height"),
            curve_poincare_check(QuadraticField(0.7), Circle(1.0),
                                 label="circle_constant"),
            curve_poincare_check(QuadraticField(0.0, 1.0),
                                 Circle(1.0, t_range=(0.0, np.pi)),
                                 label="semicircle_x")]


def _check_poincare(artifact, cases):
    rows = cases()
    n_ok = sum(r[-1] for r in rows)
    return (artifact, _csv("label,lhs,rhs,ratio,measure,pass", rows),
            n_ok == len(rows), f"{n_ok}/{len(rows)} cases")


def _check_trace_poincare():
    rows = []
    meshes = [("square", square_domain, n) for n in (8, 16, 32)]
    for name, domain, n in meshes + [("annulus", annulus_domain, 16)]:
        space = build_space(triangulate(domain(), n))
        rows.append((name, n, *trace_poincare_estimate(space)))
    L = [r[3] for r in rows]
    lo, hi = np.min(L[:3]), np.max(L[:3])
    ok = bool(np.isfinite(L).all() and hi <= 1.2 * lo)
    return ("trace_poincare.csv", _csv("domain,n,sampled_max,L_est", rows), ok,
            f"square L in [{lo:.6g}, {hi:.6g}], annulus L = {L[3]:.6g}")


def _check_counterexample():
    rows, ok = poincare_counterexample()
    q = dict(rows)
    return ("counterexample.csv", _csv("quantity,value", rows), ok,
            f"seminorm {q['tangential_seminorm']:.3g}, "
            f"mass {q['boundary_mass_sq']:.6g} vs {q['expected_mass_sq']:.6g}")


def _check_coercivity():
    coeff_sets = [
        ("a2=1,a0=0", ConstantCoefficient(1.0), ZERO),
        ("a2=0.1,a0=1", ConstantCoefficient(0.1), ConstantCoefficient(1.0)),
        ("a2=10,a0=0", ConstantCoefficient(10.0), ZERO),
        ("a2=3+x,a0=0", FieldCoefficient(QuadraticField(3.0, 1.0)), ZERO),
        ("a2=3+x+y2/4,a0=1+y2/4",
         FieldCoefficient(QuadraticField(3.0, 1.0, 0, 0, 0, 0.25)),
         FieldCoefficient(QuadraticField(1.0, 0, 0, 0, 0, 0.25))),
    ]
    rows = []
    for dname, domain in [("square", square_domain),
                          ("annulus", annulus_domain),
                          ("cable", cable_domain)]:
        space = build_space(triangulate(domain(), 16))
        sets = list(coeff_sets)
        if dname == "cable":
            sets.append(("a2=inv_curvature,a0=0", InverseCurvature(), ZERO))
        for label, a2, a0 in sets:
            system = assemble_bilinear(space, a2, a0)
            bound = system.bounds.coercivity_constant()
            quotient = coercivity_eigencheck(system.matrix_shifted,
                                             system.gram_v0())
            rows.append((dname, label, system.bounds.lambda2,
                         system.bounds.grad_bound, system.bounds.sigma0, bound,
                         quotient, quotient - bound, quotient >= bound - 1e-8))
    return ("coercivity.csv",
            _csv("domain,set,lambda2,grad_bound,sigma0,bound,min_quotient,"
                 "margin,pass", rows),
            all(r[-1] for r in rows), f"{len(rows)} domain/coefficient cases")


def _check_continuity():
    space = build_space(triangulate(cable_domain(), 16))
    system = assemble_bilinear(space, InverseCurvature(), ZERO)
    row = continuity_check(system.matrix, system.gram_v0(), system.bounds,
                           trace_poincare_estimate(space)[1])
    return ("continuity.csv", _csv("domain,chain_dofs,bound,max_ratio,pass",
                                   [("cable", *row)]),
            row[-1], f"max ratio {row[2]:.6g} vs bound {row[1]:.6g}")


def _check_weak_residual():
    sq_problem = square_affine_problem()
    sq_sol = solve_ventcel(sq_problem, n=8)
    r1, ok1 = weak_residual_check(sq_sol, sq_problem)
    cb_problem = cable_problem()
    cb_sol = solve_ventcel(cb_problem, n=32)
    r2, ok2 = weak_residual_check(cb_sol, cb_problem)
    bad = sq_sol.values.copy()
    bad[sq_sol.space.free[len(sq_sol.space.free) // 2]] += 1e-3
    r3, _ = weak_residual_check(sq_sol, sq_problem, values=bad)
    # every load key set: the only case whose solve reads f2 and g2
    all_problem = replace(
        sq_problem, exact=None, g2=FieldCoefficient(QuadraticField(0.2, 0.1)),
        f2=(FieldCoefficient(QuadraticField(0.5, 0.0, 1.0)),
            FieldCoefficient(QuadraticField(-0.5, 1.0))))
    r4, ok4 = weak_residual_check(solve_ventcel(all_problem, n=8), all_problem)
    rows = [("square_affine", r1, WEAK_RESIDUAL_TOL, ok1),
            ("cable", r2, WEAK_RESIDUAL_TOL, ok2),
            ("square_affine_fault", r3, "1e-06", r3 > 1e-6),
            ("square_all_loads", r4, WEAK_RESIDUAL_TOL, ok4)]
    return ("weak_residual.csv", _csv("case,max_residual,threshold,pass", rows),
            all(r[-1] for r in rows),
            f"max {np.max([r1, r2, r4]):.3g}, fault residual {r3:.3g}")


def _check_ibp():
    rows = ibp_identity_suite()
    n_ok = sum(r[-1] for r in rows)
    return ("ibp.csv", _csv("label,lhs,rhs,residual,tol,pass", rows),
            n_ok == len(rows), f"{n_ok}/{len(rows)} cases, "
            f"worst residual {np.max([r[3] for r in rows]):.3g}")


def _check_compatibility():
    rows, ok = compatibility_check()
    q = dict(rows)
    return ("compatibility.csv", _csv("quantity,value", rows), ok,
            f"|u_tt| {q['max_tangential_hessian']:.3g}, "
            f"equivalence {q['max_equivalence_residual']:.3g}")


def _check_convergence_cable():
    conv = manufactured_convergence(cable_problem(), n0=8, levels=4)
    o2, ov, ot = conv.observed_orders
    finest = conv.rows[-1][2]
    ok = (o2 >= 1.8 and ov >= 0.9 and ot >= 1.8 and finest < 1e-3
          and conv.monotone())
    return ("convergence_cable.csv", conv.csv_text(), ok,
            f"orders L2 {o2:.3f}, V0 {ov:.3f}, trace {ot:.3f}, "
            f"finest L2 {finest:.3g}")


def _check_convergence_square():
    conv = manufactured_convergence(square_affine_problem(), n0=8, levels=3)
    worst = float(np.max([r[2:] for r in conv.rows]))
    return ("convergence_square.csv", conv.csv_text(), worst < 1e-10,
            f"worst error {worst:.3g} (exact reproduction)")


def _check_convergence_annulus():
    conv = manufactured_convergence(annulus_log_problem(), n0=8, levels=3)
    o2 = conv.observed_orders[0]
    return ("convergence_annulus.csv", conv.csv_text(),
            o2 >= 1.8 and conv.monotone(), f"order L2 {o2:.3f}")


def _check_uniqueness():
    space = build_space(triangulate(square_domain(), 8))
    rows = []
    for base, variable, a0c in itertools.product((0.1, 1.0, 10.0),
                                                 (False, True), (0.0, 1.0)):
        a2, label = ((FieldCoefficient(QuadraticField(base, 0.3 * base)),
                      f"a2={base:g}(1+0.3x)") if variable
                     else (ConstantCoefficient(base), f"a2={base:g}"))
        system = assemble_bilinear(space, a2, ConstantCoefficient(a0c))
        diag = uniqueness_diagnostic(system, factorize(system.matrix))
        rows.append((f"{label} a0={a0c:g}", diag.n_free, diag.rcond,
                     diag.sigma_min, not diag.singular and diag.rcond > 1e-12))
    zero_sol = solve_ventcel(VentcelProblem(
        domain=square_domain(), a2=ConstantCoefficient(1.0),
        a0=ConstantCoefficient(1.0), phi=ZERO), n=8)
    zmax = float(np.abs(zero_sol.values).max())
    rows.append(("zero_data", zero_sol.space.n_free, "", zmax, zmax < 1e-12))
    return ("uniqueness.csv", _csv("label,n_free,rcond,sigma_min,pass", rows),
            all(r[-1] for r in rows),
            f"{len(rows)} systems, zero-data max {zmax:.3g}")


CHECKS = (
    ("interval_poincare",
     functools.partial(_check_poincare, "poincare_interval.csv",
                       _interval_cases)),
    ("curve_poincare",
     functools.partial(_check_poincare, "poincare_curve.csv", _curve_cases)),
    ("trace_poincare", _check_trace_poincare),
    ("counterexample", _check_counterexample),
    ("coercivity", _check_coercivity),
    ("continuity", _check_continuity),
    ("weak_residual", _check_weak_residual),
    ("ibp_identity", _check_ibp),
    ("compatibility", _check_compatibility),
    ("convergence_cable", _check_convergence_cable),
    ("convergence_square", _check_convergence_square),
    ("convergence_annulus", _check_convergence_annulus),
    ("uniqueness", _check_uniqueness),
)


def run_suite(output_dir: str) -> SuiteResult:
    """Run every check in ``CHECKS`` and write its artifact under output_dir.

    Artifacts have explicit precision and the one random draw (in
    ``onenormest``) leaves them unchanged, so every run writes the same
    bytes.  summary.txt holds one PASS/FAIL line per check.
    """
    os.makedirs(output_dir, exist_ok=True)
    lines = []
    for name, check in CHECKS:
        artifact, text, ok, detail = check()
        _write_text(os.path.join(output_dir, artifact), text)
        lines.append((name, bool(ok), detail))
    result = SuiteResult(all(ok for _, ok, _ in lines), lines)
    _write_text(os.path.join(output_dir, "summary.txt"), result.summary_text())
    return result
