"""Verification layer: inequality oracles, eigenvalue checks, residuals.

Everything here re-derives its numbers independently of the assembly
path in femcore: quadrature rules are one order higher (6-point
interior, 5-point boundary), the trace constant is a certified upper
bound and the coercivity constant a certified lower bound (each an
ARPACK estimate checked by an inertia count), and the weak-form
residual is evaluated without touching the assembled matrix.

The suite is the table ``CHECKS`` of (name, check) pairs.  Each check
maps the seed to (artifact file name, artifact text, verdict, detail);
``run_suite`` writes every artifact and a PASS/FAIL summary line per
check.  A gate that meets NaN fails.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, replace

import numpy as np
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
from .femcore import assemble_bilinear, build_space
from .mesh import _fmt, _write_text, triangulate
from .solver import (
    VentcelProblem,
    factorize,
    manufactured_problem,
    solve_ventcel,
    uniqueness_diagnostic,
)

RELATIVE_SLACK = 1e-8            # inequality checks pass iff lhs <= rhs*(1+slack)
# seeded draws of continuity_check (field pairs) and weak_residual_check
N_RANDOM = 100
# weak_residual_check passes iff the largest scaled gap is below this
WEAK_RESIDUAL_TOL = 1e-8
# relative distances from an ARPACK eigenvalue estimate at which
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
    if rhs > 0.0:
        ratio = lhs / rhs
    else:
        ratio = 0.0 if lhs == 0.0 else np.inf
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


def _random_fields(seed, *shape):
    """Seeded uniform(-1, 1) draws; shape (N, n) is N fields drawn in turn."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, shape)


def _quadratic_forms(matrix, X, Y):
    """x . (matrix y) for each row x of X and y of Y, as dot products of
    C-contiguous rows: strided ones round differently."""
    return np.vecdot(X, np.ascontiguousarray((matrix @ Y.T).T))


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


def _certified_eigenvalue(A, B, sign, v0) -> float:
    """Certified bound on an extreme eigenvalue of the pencil (A, B).

    ``sign`` +1 bounds the largest from above (ARPACK inverts B through
    one ``factorize`` LU), -1 the smallest from below (shift-invert
    about 0 through one LU of A).  Returns the first est + sign delta
    |est|, delta in ``_CERTIFY_MARGINS``, with sign (bound B - A)
    certified positive definite; nan when ARPACK fails or none does.
    """
    n = A.shape[0]
    lu = factorize(B if sign > 0 else A)
    inv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
    mode = (dict(Minv=inv, which="LA") if sign > 0
            else dict(sigma=0.0, OPinv=inv))
    try:
        est = float(spla.eigsh(A, k=1, M=B, tol=1e-12, v0=v0,
                               return_eigenvectors=False, **mode)[0])
    except spla.ArpackError:          # ArpackNoConvergence included
        return float("nan")
    for delta in _CERTIFY_MARGINS:
        bound = est + sign * delta * abs(est)
        if _positive_definite(sign * (bound * B - A)):
            return bound
    return float("nan")


def trace_poincare_estimate(space):
    """Bracket the best constant in |v|_chain <= L |Dv|_domain over V0.

    Returns ``(sampled_max, L_est)``, functions of the mesh alone.  L^2
    is the top eigenvalue of the pencil (boundary mass Mb, interior
    stiffness K) on the free dofs.  ``sampled_max``, a lower value, is
    the best hat quotient (Mb)_ii / K_ii; that hat starts ARPACK.
    ``L_est``, the root of the certified upper bound on L^2, is an upper
    bound; nan when none certifies.
    """
    system = assemble_bilinear(space, ConstantCoefficient(1.0), ZERO)
    fr = space.free
    K = system.K_int[fr][:, fr].tocsc()
    Mb = system.M_b[fr][:, fr].tocsr()
    q = Mb.diagonal() / K.diagonal()
    i = int(np.argmax(q))
    mu = _certified_eigenvalue(Mb, K, 1, np.eye(1, len(fr), i)[0])
    return float(np.sqrt(q[i])), float(np.sqrt(mu))


def coercivity_eigencheck(matrix, gram, seed=0) -> float:
    """Certified lower bound on the min eigenvalue of sym(matrix) vs gram.

    Only the symmetric part enters, since the quadratic form discards
    the skew part.  ARPACK starts from a seeded random vector.
    """
    symB = (0.5 * (matrix + matrix.T)).tocsc()
    return _certified_eigenvalue(symB, gram, -1,
                                 _random_fields(seed, matrix.shape[0]))


def continuity_check(matrix, gram, bounds, L_est, seed=0):
    """Operator-norm bound 1 + Lam2 + M L + Lam0 L^2 on ``N_RANDOM`` pairs.

    Each interior/tangential/coupling/zero-order piece of the form is
    bounded through the energy norm, using the trace constant to pull
    chain values back to interior gradients.  Returns ``(bound,
    max_ratio, passed)``.
    """
    bound = (1.0 + bounds.Lambda2 + bounds.grad_bound * L_est
             + bounds.Lambda0 * L_est**2)
    V, W = _random_fields(seed, N_RANDOM, 2, matrix.shape[0]).swapaxes(0, 1)
    nv = np.sqrt(np.maximum(_quadratic_forms(gram, V, V), 0.0))
    nw = np.sqrt(np.maximum(_quadratic_forms(gram, W, W), 0.0))
    worst = float(np.max(np.abs(_quadratic_forms(matrix, V, W)) / (nv * nw)))
    return bound, worst, worst <= bound * (1.0 + RELATIVE_SLACK)


# ---------------------------------------------------------------------------
# independent weak-form residual


def _weak_form(space, problem, u):
    """(q, ell): the form applied to nodal values u, the load functional."""
    tris = space.mesh.triangles
    q = np.zeros(space.n_nodes)                        # the form applied to u
    du = np.einsum("ti,tid->td", u[tris], space.tri_grads)  # (T, 2)
    np.add.at(q, tris, space.tri_area[:, None] * np.einsum(
        "td,tid->ti", du, space.tri_grads))
    ell = np.zeros(space.n_nodes)                      # the load functional
    phys = np.einsum("qk,tkd->tqd", DUNAVANT6_BARY, space.mesh.nodes[tris])
    if problem.f1 is not None:
        vals = problem.f1.eval_points(phys)
        weights = space.tri_area[:, None] * DUNAVANT6_W[None, :]
        np.add.at(ell, tris, np.einsum("tq,qk->tk", weights * vals,
                                       DUNAVANT6_BARY))
    if problem.f2 is not None:
        wx = space.tri_area * (problem.f2[0].eval_points(phys) @ DUNAVANT6_W)
        wy = space.tri_area * (problem.f2[1].eval_points(phys) @ DUNAVANT6_W)
        np.add.at(ell, tris, -(space.tri_grads[..., 0] * wx[:, None]
                               + space.tri_grads[..., 1] * wy[:, None]))

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


def weak_residual_check(solution, problem, seed=0, values=None):
    """Test the solved values in the weak equation, fresh quadrature.

    Both sides of the variational identity are recomputed independently
    of the assembled system: interior stiffness exactly for piecewise-
    linear gradients, interior loads by the 6-point rule, and every
    chain term by the 5-point rule on each edge with coefficients and
    loads sampled on the exact curve.  For ``N_RANDOM`` seeded random
    test fields supported on the free dofs the scaled gap must stay
    below ``WEAK_RESIDUAL_TOL``; they vanish on the walls, so wrong wall
    values go unseen.  ``values`` overrides the nodal solution (fault
    injection).  Returns ``(max_residual, passed)``.
    """
    space = solution.space
    q, ell = _weak_form(space, problem,
                        solution.values if values is None else values)
    # full-length rows, zero on the walls: each w . q stays one dot product
    W = np.zeros((N_RANDOM, space.n_nodes))
    W[:, space.free] = _random_fields(seed, N_RANDOM, len(space.free))
    rhs = np.vecdot(W, ell)
    worst = float(np.max(np.abs(np.vecdot(W, q) - rhs) / (1.0 + np.abs(rhs))))
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

    diffs = []
    for n in (16, 32):
        sol = solve_ventcel(cable_problem(), n=n)
        diffs.append(_chain_second_difference(sol))
    coarse, fine = diffs
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
    pts = mesh.nodes[tris]
    phys = np.einsum("qk,tkd->tqd", DUNAVANT6_BARY, pts)
    w6 = space.tri_area[:, None] * DUNAVANT6_W[None, :]

    uh = np.einsum("tk,qk->tq", u[tris], DUNAVANT6_BARY)
    diff = exact.value(phys) - uh
    e_l2 = float(np.sqrt(np.sum(w6 * diff**2)))

    gh = np.einsum("ti,tid->td", u[tris], space.tri_grads)
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
    for k in range(levels):
        n = n0 * 2**k
        sol = solve_ventcel(problem, n=n)
        e2, ev, et = solution_errors(sol, problem.exact)
        rows.append((n, sol.space.h, e2, ev, et))
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
# the suite: one function per check, seed -> (artifact, text, ok, detail)


@dataclass
class SuiteResult:
    passed: bool
    lines: list                    # (name, ok, detail)

    def summary_text(self) -> str:
        out = []
        for name, ok, detail in self.lines:
            out.append(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
        n_fail = sum(1 for _, ok, _ in self.lines if not ok)
        out.append("ALL PASS" if n_fail == 0 else f"FAILURES: {n_fail}")
        return "\n".join(out) + "\n"


def _cell(x) -> str:
    """One CSV cell: floats by ``_fmt``, bools 0/1, None empty."""
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(x)
    if isinstance(x, (float, np.floating)):
        return _fmt(x)
    return "" if x is None else x


def _csv(header, rows) -> str:
    return "\n".join([header] + [",".join(map(_cell, r)) for r in rows]) + "\n"


def _interval_cases():
    return [
        interval_poincare_check(lambda s: np.asarray(s, dtype=float),
                                label="ramp"),
        interval_poincare_check(lambda s: np.full(np.shape(s), 0.7),
                                label="constant"),
        interval_poincare_check(lambda s: np.clip(2.0 * np.asarray(s), 0.0, 1.0),
                                label="clamped_ramp"),
    ]


def _curve_cases():
    return [
        curve_poincare_check(QuadraticField(0.0, 0.0, 1.0), CableArc(),
                             label="cable_height"),
        curve_poincare_check(QuadraticField(0.7), Circle(1.0),
                             label="circle_constant"),
        curve_poincare_check(QuadraticField(0.0, 1.0),
                             Circle(1.0, t_range=(0.0, np.pi)),
                             label="semicircle_x"),
    ]


def _check_poincare(artifact, cases, seed):
    rows = cases()
    n_ok = sum(r[-1] for r in rows)
    return (artifact, _csv("label,lhs,rhs,ratio,measure,pass", rows),
            n_ok == len(rows), f"{n_ok}/{len(rows)} cases")


def _check_trace_poincare(seed):
    rows = []
    for name, domain, n in [("square", square_domain, 8),
                            ("square", square_domain, 16),
                            ("square", square_domain, 32),
                            ("annulus", annulus_domain, 16)]:
        space = build_space(triangulate(domain(), n))
        rows.append((name, n, *trace_poincare_estimate(space)))
    L = [r[3] for r in rows]
    lo, hi = np.min(L[:3]), np.max(L[:3])
    ok = bool(np.isfinite(L).all() and hi <= 1.2 * lo)
    return ("trace_poincare.csv", _csv("domain,n,sampled_max,L_est", rows), ok,
            f"square L in [{lo:.6g}, {hi:.6g}], annulus L = {L[3]:.6g}")


def _check_counterexample(seed):
    rows, ok = poincare_counterexample()
    q = dict(rows)
    return ("counterexample.csv", _csv("quantity,value", rows), ok,
            f"seminorm {q['tangential_seminorm']:.3g}, "
            f"mass {q['boundary_mass_sq']:.6g} vs {q['expected_mass_sq']:.6g}")


def _check_coercivity(seed):
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
                                             system.gram_v0(), seed=seed)
            rows.append((dname, label, system.bounds.lambda2,
                         system.bounds.grad_bound, system.bounds.sigma0, bound,
                         quotient, quotient - bound, quotient >= bound - 1e-8))
    return ("coercivity.csv",
            _csv("domain,set,lambda2,grad_bound,sigma0,bound,min_quotient,"
                 "margin,pass", rows),
            all(r[-1] for r in rows), f"{len(rows)} domain/coefficient cases")


def _check_continuity(seed):
    space = build_space(triangulate(cable_domain(), 16))
    system = assemble_bilinear(space, InverseCurvature(), ZERO)
    L_est = trace_poincare_estimate(space)[1]
    bound, ratio, ok = continuity_check(system.matrix, system.gram_v0(),
                                        system.bounds, L_est, seed=seed + 1)
    return ("continuity.csv", _csv("domain,n_pairs,bound,max_ratio,pass",
                                   [("cable", N_RANDOM, bound, ratio, ok)]),
            ok, f"max ratio {ratio:.6g} vs bound {bound:.6g}")


def _check_weak_residual(seed):
    sq_problem = square_affine_problem()
    sq_sol = solve_ventcel(sq_problem, n=8)
    r1, ok1 = weak_residual_check(sq_sol, sq_problem, seed=seed + 2)
    cb_problem = cable_problem()
    cb_sol = solve_ventcel(cb_problem, n=32)
    r2, ok2 = weak_residual_check(cb_sol, cb_problem, seed=seed + 3)
    bad = sq_sol.values.copy()
    bad[sq_sol.space.free[len(sq_sol.space.free) // 2]] += 1e-3
    r3, _ = weak_residual_check(sq_sol, sq_problem, seed=seed + 2, values=bad)
    # every load key set: the only case whose solve reads f2 and g2
    all_problem = replace(
        sq_problem, exact=None, g2=FieldCoefficient(QuadraticField(0.2, 0.1)),
        f2=(FieldCoefficient(QuadraticField(0.5, 0.0, 1.0)),
            FieldCoefficient(QuadraticField(-0.5, 1.0))))
    r4, ok4 = weak_residual_check(solve_ventcel(all_problem, n=8), all_problem,
                                  seed=seed + 4)
    rows = [("square_affine", r1, WEAK_RESIDUAL_TOL, ok1),
            ("cable", r2, WEAK_RESIDUAL_TOL, ok2),
            ("square_affine_fault", r3, "1e-06", r3 > 1e-6),
            ("square_all_loads", r4, WEAK_RESIDUAL_TOL, ok4)]
    return ("weak_residual.csv", _csv("case,max_residual,threshold,pass", rows),
            all(r[-1] for r in rows),
            f"max {np.max([r1, r2, r4]):.3g}, fault residual {r3:.3g}")


def _check_ibp(seed):
    rows = ibp_identity_suite()
    n_ok = sum(r[-1] for r in rows)
    return ("ibp.csv", _csv("label,lhs,rhs,residual,tol,pass", rows),
            n_ok == len(rows), f"{n_ok}/{len(rows)} cases, "
            f"worst residual {np.max([r[3] for r in rows]):.3g}")


def _check_compatibility(seed):
    rows, ok = compatibility_check()
    q = dict(rows)
    return ("compatibility.csv", _csv("quantity,value", rows), ok,
            f"|u_tt| {q['max_tangential_hessian']:.3g}, "
            f"equivalence {q['max_equivalence_residual']:.3g}")


def _check_convergence_cable(seed):
    conv = manufactured_convergence(cable_problem(), n0=8, levels=4)
    o2, ov, ot = conv.observed_orders
    finest = conv.rows[-1][2]
    ok = (o2 >= 1.8 and ov >= 0.9 and ot >= 1.8 and finest < 1e-3
          and conv.monotone())
    return ("convergence_cable.csv", conv.csv_text(), ok,
            f"orders L2 {o2:.3f}, V0 {ov:.3f}, trace {ot:.3f}, "
            f"finest L2 {finest:.3g}")


def _check_convergence_square(seed):
    conv = manufactured_convergence(square_affine_problem(), n0=8, levels=3)
    worst = float(np.max([r[2:] for r in conv.rows]))
    return ("convergence_square.csv", conv.csv_text(), worst < 1e-10,
            f"worst error {worst:.3g} (exact reproduction)")


def _check_convergence_annulus(seed):
    conv = manufactured_convergence(annulus_log_problem(), n0=8, levels=3)
    o2 = conv.observed_orders[0]
    return ("convergence_annulus.csv", conv.csv_text(),
            o2 >= 1.8 and conv.monotone(), f"order L2 {o2:.3f}")


def _check_uniqueness(seed):
    space = build_space(triangulate(square_domain(), 8))
    rows = []
    for base in (0.1, 1.0, 10.0):
        for variable in (False, True):
            for a0c in (0.0, 1.0):
                if variable:
                    a2 = FieldCoefficient(QuadraticField(base, 0.3 * base))
                    label = f"a2={base:g}(1+0.3x)"
                else:
                    a2 = ConstantCoefficient(base)
                    label = f"a2={base:g}"
                system = assemble_bilinear(space, a2, ConstantCoefficient(a0c))
                diag = uniqueness_diagnostic(system, factorize(system.matrix),
                                             seed)
                rows.append((f"{label} a0={a0c:g}", diag.n_free, diag.rcond,
                             diag.sigma_min,
                             (not diag.singular) and diag.rcond > 1e-12))
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


def run_suite(output_dir: str, seed: int = 42) -> SuiteResult:
    """Run every check in ``CHECKS`` and write its artifact under output_dir.

    Artifacts have explicit precision and the suite's draws flow from
    the seed, but not ARPACK's: at seeds 5 and 15 coercivity.csv's row
    square,a2=3+x+y2/4,a0=1+y2/4 varies from run to run, as a restart
    asks eigsh for a fresh vector and scipy draws it unseeded.
    summary.txt holds one PASS/FAIL line per check.
    """
    os.makedirs(output_dir, exist_ok=True)
    lines = []
    for name, check in CHECKS:
        artifact, text, ok, detail = check(seed)
        _write_text(os.path.join(output_dir, artifact), text)
        lines.append((name, bool(ok), detail))
    result = SuiteResult(all(ok for _, ok, _ in lines), lines)
    _write_text(os.path.join(output_dir, "summary.txt"), result.summary_text())
    return result
