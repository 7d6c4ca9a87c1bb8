"""Verification layer: inequality oracles, eigenvalue checks, residuals.

Everything here re-derives its numbers independently of the assembly
path in femcore: quadrature rules are one order higher (6-point
interior, 5-point boundary), the trace constant comes from a pencil
power iteration, the coercivity constant is a certified lower bound
(an ARPACK estimate checked by an inertia count), and the weak-form
residual is evaluated without touching the assembled matrix.
``run_suite`` drives all checks and writes deterministic CSV reports
plus a PASS/FAIL summary.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

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
    manufactured_problem,
    solve_ventcel,
    uniqueness_diagnostic,
)

RELATIVE_SLACK = 1e-8            # inequality checks pass iff lhs <= rhs*(1+slack)
# coercivity_eigencheck: relative distances below the eigenvalue
# estimate at which a lower bound is certified, tried in order
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


@dataclass
class InequalityReport:
    label: str
    lhs: float
    rhs: float
    measure: float                # Lebesgue measure of the strict level set
    passed: bool

    @property
    def ratio(self) -> float:
        if self.rhs > 0.0:
            return self.lhs / self.rhs
        return 0.0 if self.lhs == 0.0 else np.inf


def _level_set_inequality(svals, vvals, slopes, label) -> InequalityReport:
    """Core of the interval/curve checks on an equispaced arc grid.

    The level band is derived from the sampled function itself: with
    v0 = min v and v1 = max v, a subinterval belongs to the strict set
    when its midpoint value lies in (v0, v1) with a 1e-12 margin.  The
    squared-deviation integral uses the trapezoid rule, the slope
    integral the per-subinterval mean slope; both are restricted to
    the included subintervals.
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
    passed = lhs <= rhs * (1.0 + RELATIVE_SLACK)
    return InequalityReport(label, lhs, rhs, measure, passed)


def interval_poincare_check(v, a, b, n_samples=20001,
                            label="interval") -> InequalityReport:
    """Deviation-from-minimum bound for a function on an interval.

    Checks integral of (v - min v)^2 over the strict level band
    against |band|^2 times the integral of (v')^2 there.  Slopes are
    forward differences on the sample grid, which integrate (v')^2
    exactly for piecewise-linear v aligned with the grid.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    s = np.linspace(a, b, n_samples)
    vv = np.asarray(v(s), dtype=float)
    if vv.shape != s.shape:           # non-vectorized callable
        vv = np.asarray([float(v(x)) for x in s])
    slopes = np.diff(vv) / np.diff(s)
    return _level_set_inequality(s, vv, slopes, label)


def curve_poincare_check(w, curve, n_samples=4096,
                         label="curve") -> InequalityReport:
    """Same bound for the restriction of a plane field to a curve.

    Samples uniformly in arc length; the tangential derivative is the
    analytic tau . grad w, evaluated at subinterval midpoints.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    L = curve.total_length
    s = np.linspace(0.0, L, n_samples)
    t = curve.param_at_arc_length(s)
    vv = np.atleast_1d(np.asarray(w.value(curve.point(t)), dtype=float))
    smid = 0.5 * (s[:-1] + s[1:])
    tmid = curve.param_at_arc_length(smid)
    slopes = np.atleast_1d(frame_derivatives(w, curve, tmid)[0])
    return _level_set_inequality(s, vv, slopes, label)


@dataclass
class CounterexampleReport:
    tangential_seminorm: float
    boundary_mass_sq: float        # squared trace norm of the interpolant
    expected_mass_sq: float        # outer perimeter 2 pi R1
    node_deviation: float          # max |w - 1| over outer-circle nodes
    passed: bool


def poincare_counterexample(r_inner=1.0, r_outer=2.0, n=16) -> CounterexampleReport:
    """Radial ramp on an annulus: zero tangential energy, order-one trace.

    The nodal interpolant of (|x| - R0)/(R1 - R0) is constant 1 on the
    outer chain, so its tangential seminorm vanishes identically while
    its squared trace norm approaches the outer perimeter.  No bound
    of the trace norm by the tangential seminorm alone can hold.
    """
    dom = annulus_domain(r_inner, r_outer, ventcel_on="outer")
    mesh = triangulate(dom, n)
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
    return CounterexampleReport(semi, mass, expected, node_dev, passed)


# ---------------------------------------------------------------------------
# pencil eigenvalues


@dataclass
class TracePoincareReport:
    L_est: float
    sampled_max: float
    iterations: int


def trace_poincare_estimate(space, n_random=100, seed=0) -> TracePoincareReport:
    """Best discrete constant in |v|_chain <= L |Dv|_domain over V0.

    Seeds with random free-dof fields and every hat function, then
    refines the best candidate by power iteration on the generalized
    pencil (boundary mass, interior stiffness) restricted to the free
    dofs; the refined quotient is the discrete operator norm.
    """
    if n_random < 100:
        raise ValueError("n_random must be at least 100")
    system = assemble_bilinear(space, ConstantCoefficient(1.0), ZERO)
    fr = space.free
    K = system.K_int[fr][:, fr].tocsc()
    Mb = system.M_b[fr][:, fr].tocsr()
    nf = len(fr)

    rng = np.random.default_rng(seed)
    best_q, best_x = 0.0, None
    for _ in range(n_random):
        x = rng.uniform(-1.0, 1.0, nf)
        den = float(x @ (K.dot(x)))
        if den <= 0.0:
            continue
        q = float(x @ Mb.dot(x)) / den
        if q > best_q:
            best_q, best_x = q, x
    kd = K.diagonal()
    hat_q = Mb.diagonal() / kd
    ih = int(np.argmax(hat_q))
    if hat_q[ih] > best_q:
        best_q = float(hat_q[ih])
        best_x = np.zeros(nf)
        best_x[ih] = 1.0
    sampled_max = float(np.sqrt(best_q))

    lu = spla.splu(K)
    x = best_x / np.linalg.norm(best_x)
    lam, it_used = best_q, 0
    for it in range(1, 5001):
        y = lu.solve(Mb.dot(x))
        ny = np.linalg.norm(y)
        if ny == 0.0:
            break
        x = y / ny
        lam_new = float(x @ Mb.dot(x)) / float(x @ K.dot(x))
        it_used = it
        if abs(lam_new - lam) <= 1e-13 * max(lam_new, 1e-30):
            lam = lam_new
            break
        lam = lam_new
    return TracePoincareReport(float(np.sqrt(max(lam, 0.0))), sampled_max,
                               it_used)


def coercivity_eigencheck(matrix, gram, seed=0) -> float:
    """Certified lower bound on the min eigenvalue of sym(matrix) vs gram.

    Only the symmetric part enters, since the quadratic form discards
    the skew part.  ARPACK in shift-invert mode about 0 (one LU of
    sym(matrix)) estimates the smallest eigenvalue ``est``.  For each
    margin delta in ``_CERTIFY_MARGINS`` in turn, sym(matrix) - c gram
    with c = est - delta |est| is factored without pivoting under a
    symmetric ordering; when the factorization succeeds with
    perm_r == perm_c, U = D L^T and the signs of diag(U) are the
    inertia (Sylvester's law), so an all-positive diagonal proves
    sym(matrix) - c gram positive definite and c below every eigenvalue.
    The proof is for the matrix the rounded factorization represents;
    the margins leave room for that rounding rather than bound it.
    Returns the first certified c, or nan when ARPACK fails or no
    margin certifies.
    """
    symB = (0.5 * (matrix + matrix.T)).tocsc()
    n = matrix.shape[0]
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    if float(x @ gram.dot(x)) <= 0.0:
        raise ValueError("gram matrix is not positive definite")
    lu = spla.splu(symB)
    inv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
    try:
        est = float(spla.eigsh(symB, k=1, M=gram, sigma=0.0, OPinv=inv,
                               tol=1e-12, v0=x,
                               return_eigenvectors=False)[0])
    except spla.ArpackError:          # ArpackNoConvergence included
        return float("nan")
    for delta in _CERTIFY_MARGINS:
        c = est - delta * abs(est)
        try:
            shifted = spla.splu((symB - c * gram).tocsc(),
                                permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0,
                                options={"SymmetricMode": True})
        except RuntimeError:
            continue
        if (np.array_equal(shifted.perm_r, shifted.perm_c)
                and np.all(shifted.U.diagonal() > 0.0)):
            return c
    return float("nan")


@dataclass
class ContinuityReport:
    max_ratio: float
    bound: float
    n_pairs: int
    passed: bool


def continuity_check(matrix, gram, bounds, L_est, n_random=100,
                     seed=0) -> ContinuityReport:
    """Operator-norm bound 1 + Lam2 + M L + Lam0 L^2 on random pairs.

    Each interior/tangential/coupling/zero-order piece of the form is
    bounded through the energy norm, using the trace constant to pull
    chain values back to interior gradients.
    """
    bound = (1.0 + bounds.Lambda2 + bounds.grad_bound * L_est
             + bounds.Lambda0 * L_est**2)
    rng = np.random.default_rng(seed)
    nf = matrix.shape[0]
    worst = 0.0
    for _ in range(n_random):
        v = rng.uniform(-1.0, 1.0, nf)
        w = rng.uniform(-1.0, 1.0, nf)
        nv = float(np.sqrt(max(v @ gram.dot(v), 0.0)))
        nw = float(np.sqrt(max(w @ gram.dot(w), 0.0)))
        if nv == 0.0 or nw == 0.0:
            continue
        val = abs(float(v @ matrix.dot(w)))
        worst = max(worst, val / (nv * nw))
    return ContinuityReport(worst, bound,
                            n_random, worst <= bound * (1.0 + RELATIVE_SLACK))


# ---------------------------------------------------------------------------
# independent weak-form residual


def _independent_action(space, a2, a0, u):
    """Apply the variational form to nodal values u, fresh quadrature.

    Interior stiffness is exact for piecewise-linear gradients; chain
    terms use the 5-point rule on each edge with coefficients sampled
    on the exact curve.
    """
    mesh = space.mesh
    q = np.zeros(space.n_nodes)
    tris = mesh.triangles
    uv = u[tris]                                       # (T, 3)
    du = np.einsum("ti,tid->td", uv, space.tri_grads)  # (T, 2)
    contrib = space.tri_area[:, None] * np.einsum(
        "td,tid->ti", du, space.tri_grads)
    np.add.at(q, tris, contrib)

    ch = space.ventcel_edges
    tq = ch.points(GAUSS5_XI)
    wq = ch.ell[:, None] * GAUSS5_W
    a2q = ch.on_curves(a2.eval_curve, tq)[:, None]
    da2q = ch.on_curves(a2.tangential_deriv, tq)[:, None]
    a0q = ch.on_curves(a0.eval_curve, tq)[:, None]
    ua, ub = u[ch.a][:, None], u[ch.b][:, None]
    uq = (ua * (1.0 - GAUSS5_XI) + ub * GAUSS5_XI)[:, None]
    dus = ((ub - ua) / ch.ell[:, None])[:, None]
    phi = np.stack([1.0 - GAUSS5_XI, GAUSS5_XI])       # (2, q)
    dphi = (np.array([-1.0, 1.0]) / ch.ell[:, None])[:, :, None]
    # (E, 2, q): test functions of nodes a and b on every edge
    integrand = wq[:, None] * (a2q * dphi * dus + phi * da2q * dus
                               + a0q * uq * phi)
    ch.add_to(q, np.sum(integrand, axis=-1))
    return q


def _independent_load(space, problem):
    """Evaluate the load functional with the higher-order rules."""
    mesh = space.mesh
    L = np.zeros(space.n_nodes)
    tris = mesh.triangles
    pts = mesh.nodes[tris]                             # (T, 3, 2)
    phys = np.einsum("qk,tkd->tqd", DUNAVANT6_BARY, pts)

    if problem.f1 is not None:
        vals = np.atleast_2d(problem.f1.eval_points(phys))
        weights = space.tri_area[:, None] * DUNAVANT6_W[None, :]
        contrib = np.einsum("tq,qk->tk", weights * vals, DUNAVANT6_BARY)
        np.add.at(L, tris, contrib)
    if problem.f2 is not None:
        fx = np.atleast_2d(problem.f2[0].eval_points(phys))
        fy = np.atleast_2d(problem.f2[1].eval_points(phys))
        wx = space.tri_area * (fx @ DUNAVANT6_W)
        wy = space.tri_area * (fy @ DUNAVANT6_W)
        contrib = -(space.tri_grads[..., 0] * wx[:, None]
                    + space.tri_grads[..., 1] * wy[:, None])
        np.add.at(L, tris, contrib)
    ch = space.ventcel_edges
    tq = ch.points(GAUSS5_XI)
    wq = ch.ell[:, None] * GAUSS5_W
    chain = []
    if problem.g1 is not None:
        g1q = ch.on_curves(problem.g1.eval_curve, tq)
        phi = np.stack([1.0 - GAUSS5_XI, GAUSS5_XI])
        chain.append(np.sum((wq * g1q)[:, None] * phi, axis=-1))
    if problem.g2 is not None:
        g2q = ch.on_curves(problem.g2.eval_curve, tq)
        dphi = np.array([-1.0, 1.0]) / ch.ell[:, None]
        chain.append(-(np.sum(wq * g2q, axis=-1)[:, None] * dphi))
    if chain:
        ch.add_to(L, *chain)
    return L


@dataclass
class WeakResidualReport:
    max_residual: float
    threshold: float
    n_fields: int
    passed: bool


def weak_residual_check(solution, problem, n_random=100, seed=0,
                        values=None, threshold=1e-8) -> WeakResidualReport:
    """Test the solved values in the weak equation, fresh quadrature.

    For seeded random test fields supported on the free dofs the two
    sides of the variational identity are recomputed independently of
    the assembled system; the scaled gap must stay below threshold.
    ``values`` overrides the nodal solution (fault injection).
    """
    space = solution.space
    u = solution.values if values is None else values
    q = _independent_action(space, problem.a2, problem.a0, u)
    ell = _independent_load(space, problem)

    rng = np.random.default_rng(seed)
    fr = space.free
    worst = 0.0
    for _ in range(n_random):
        w = np.zeros(space.n_nodes)
        w[fr] = rng.uniform(-1.0, 1.0, len(fr))
        lhs = float(w @ q)
        rhs = float(w @ ell)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return WeakResidualReport(worst, threshold, n_random, worst < threshold)


# ---------------------------------------------------------------------------
# tangential integration-by-parts identity


@dataclass
class IbpReport:
    label: str
    lhs: float
    rhs: float
    residual: float
    tol: float
    passed: bool


def ibp_identity_check(curve, u_field, w_field, a2, n_panels=8192,
                       label="ibp") -> IbpReport:
    """Dense-quadrature check of the tangential product-rule identity.

        int (a2 w' + w a2') u' ds  =  - int a2 w u'' ds

    Valid when the curve closes or the test field vanishes at both
    endpoints; the boundary term of the integration by parts then
    drops.  Composite Simpson in the curve parameter with the arc
    measure; all derivatives analytic.
    """
    if n_panels % 2:
        raise ValueError("n_panels must be even")
    t = np.linspace(curve.t0, curve.t1, n_panels + 1)
    if not curve.closed:
        ends = w_field.value(curve.point(np.array([curve.t0, curve.t1])))
        if np.abs(ends).max() > 1e-12:
            raise ValueError(
                f"{label}: test field must vanish at the open endpoints")
    sp = curve.speed(t)
    p = curve.point(t)
    wv = np.asarray(w_field.value(p), dtype=float)
    dw = frame_derivatives(w_field, curve, t)[0]
    du, u_tt, u_nu, kappa = frame_derivatives(u_field, curve, t)
    d2u = u_tt + kappa * u_nu
    a2v = np.atleast_1d(a2.eval_curve(curve, t))
    da2 = np.atleast_1d(a2.tangential_deriv(curve, t))

    weights = np.ones(n_panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (t[1] - t[0]) / 3.0

    lhs = float(np.sum(weights * (a2v * dw + wv * da2) * du * sp))
    rhs = float(-np.sum(weights * a2v * wv * d2u * sp))
    tol = 1e-6 * max(1.0, abs(lhs), abs(rhs))
    res = abs(lhs - rhs)
    return IbpReport(label, lhs, rhs, res, tol, res <= tol)


def ibp_identity_suite() -> list[IbpReport]:
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


@dataclass
class CompatibilityReport:
    max_tangential_hessian: float   # max |u_tt| of the exact field
    max_equivalence_residual: float  # |u_ss - u_tt - k u_nu| by differences
    second_difference_coarse: float
    second_difference_fine: float
    passed: bool


def compatibility_check(n_samples=1000) -> CompatibilityReport:
    """The reference cubic has zero tangential-tangential Hessian on
    the cable arc, making the homogeneous chain condition exact; the
    finite-difference arc second derivative must match the frame
    decomposition, and the discrete trace's scaled second differences
    shrink with the mesh.
    """
    curve = CableArc()
    exact = EXACT_SOLUTIONS["harmonic_cubic"]
    t = np.linspace(curve.t0, curve.t1, n_samples)
    max_tt = float(np.abs(frame_derivatives(exact, curve, t)[1]).max())

    max_equiv = float(equivalence_residual(exact, curve, t).max())

    diffs = []
    for n in (16, 32):
        sol = solve_ventcel(cable_problem(), n=n)
        diffs.append(_chain_second_difference(sol))
    coarse, fine = diffs
    passed = (max_tt < 1e-8 and max_equiv < 1e-6 and fine <= 0.75 * coarse)
    return CompatibilityReport(max_tt, max_equiv, coarse, fine, passed)


def _chain_second_difference(solution) -> float:
    """Max |u_{j+1} - 2 u_j + u_{j-1}| / h over interior chain nodes."""
    ch = solution.space.ventcel_edges
    worst = 0.0
    for _, rows in ch.curves:
        vals = solution.values[np.concatenate([ch.a[rows][:1], ch.b[rows]])]
        h = float(np.mean(ch.ell[rows]))
        if len(vals) >= 3:
            d2 = np.abs(vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / h
            worst = max(worst, float(d2.max()))
    return worst


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
    diff = np.asarray(exact.value(phys), dtype=float) - uh
    e_l2 = float(np.sqrt(np.sum(w6 * diff**2)))

    gh = np.einsum("ti,tid->td", u[tris], space.tri_grads)
    gex = np.asarray(exact.grad(phys), dtype=float)
    gd = gex - gh[:, None, :]
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

    def __post_init__(self):
        hs = [r[1] for r in self.rows]
        if any(b >= a for a, b in zip(hs, hs[1:])):
            raise ValueError("mesh sizes must strictly decrease")

    def pair_orders(self):
        """Per-refinement orders (None on the first row)."""
        out = [(None, None)]
        for (n0, h0, a0, b0, _), (n1, h1, a1, b1, _) in zip(
                self.rows, self.rows[1:]):
            lo = np.log(h0 / h1)
            o_l2 = np.log(max(a0, 1e-300) / max(a1, 1e-300)) / lo
            o_v0 = np.log(max(b0, 1e-300) / max(b1, 1e-300)) / lo
            out.append((float(o_l2), float(o_v0)))
        return out

    @property
    def observed_orders(self):
        """Least-squares slopes of log error against log h."""
        if len(self.rows) < 3:
            raise ValueError("need at least 3 rows for an order estimate")
        x = np.log([r[1] for r in self.rows])
        xc = x - x.mean()
        den = float(xc @ xc)
        slopes = []
        for col in (2, 3, 4):
            y = np.log([max(r[col], 1e-300) for r in self.rows])
            slopes.append(float(xc @ (y - y.mean()) / den))
        return tuple(slopes)

    def monotone(self, floor=1e-12, slack=0.05) -> bool:
        """Errors decrease across levels; slack on the coarsest pair."""
        for col in (2, 3, 4):
            vals = [r[col] for r in self.rows]
            for i, (a, b) in enumerate(zip(vals, vals[1:])):
                if a <= floor or b <= floor:
                    continue
                limit = a * (1.0 + slack) if i == 0 else a
                if b >= limit:
                    return False
        return True

    def csv_text(self) -> str:
        lines = ["n,h,e_L2,e_V0,e_trace,order_L2,order_V0"]
        for row, (o2, ov) in zip(self.rows, self.pair_orders()):
            n, h, e2, ev, et = row
            cells = [str(n), _fmt(h), _fmt(e2), _fmt(ev), _fmt(et),
                     "" if o2 is None else format(o2, ".6f"),
                     "" if ov is None else format(ov, ".6f")]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        _write_text(path, self.csv_text())


def manufactured_convergence(problem, n0=8, levels=4) -> ConvergenceReport:
    """Solve on meshes n0, 2 n0, ... and tabulate errors."""
    if levels < 3:
        raise ValueError("need at least 3 levels")
    if problem.exact is None:
        raise ValueError("problem has no exact solution attached")
    rows = []
    for k in range(levels):
        n = n0 * 2**k
        sol = solve_ventcel(problem, n=n)
        e2, ev, et = solution_errors(sol, problem.exact)
        rows.append((n, sol.space.mesh.h, e2, ev, et))
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
# the suite


@dataclass
class SuiteResult:
    passed: bool
    lines: list                    # (name, ok, detail)
    output_dir: str

    def summary_text(self) -> str:
        out = []
        for name, ok, detail in self.lines:
            out.append(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
        n_fail = sum(1 for _, ok, _ in self.lines if not ok)
        out.append("ALL PASS" if n_fail == 0 else f"FAILURES: {n_fail}")
        return "\n".join(out) + "\n"


def _csv(path, header, rows):
    _write_text(path, "\n".join([header] + rows) + "\n")


def run_suite(output_dir: str, seed: int = 42) -> SuiteResult:
    """Run every verification check and write reports under output_dir.

    Deterministic for a fixed seed: all randomness flows from it and
    every artifact is formatted with explicit precision.
    """
    os.makedirs(output_dir, exist_ok=True)
    lines = []

    def record(name, ok, detail):
        lines.append((name, bool(ok), detail))

    # interval inequality oracles
    cases = [
        interval_poincare_check(lambda s: np.asarray(s, dtype=float),
                                0.0, 1.0, label="ramp"),
        interval_poincare_check(lambda s: np.full(np.shape(s), 0.7),
                                0.0, 1.0, label="constant"),
        interval_poincare_check(lambda s: np.clip(2.0 * np.asarray(s), 0.0, 1.0),
                                0.0, 1.0, label="clamped_ramp"),
    ]
    _csv(os.path.join(output_dir, "poincare_interval.csv"),
         "label,lhs,rhs,ratio,measure,pass",
         [f"{c.label},{_fmt(c.lhs)},{_fmt(c.rhs)},{_fmt(c.ratio)},"
          f"{_fmt(c.measure)},{int(c.passed)}" for c in cases])
    record("interval_poincare", all(c.passed for c in cases),
           f"{sum(c.passed for c in cases)}/{len(cases)} cases")

    # curve inequality oracles
    ccases = [
        curve_poincare_check(QuadraticField(0.0, 0.0, 1.0), CableArc(),
                             label="cable_height"),
        curve_poincare_check(QuadraticField(0.7), Circle(1.0),
                             label="circle_constant"),
        curve_poincare_check(QuadraticField(0.0, 1.0),
                             Circle(1.0, t_range=(0.0, np.pi)),
                             label="semicircle_x"),
    ]
    _csv(os.path.join(output_dir, "poincare_curve.csv"),
         "label,lhs,rhs,ratio,measure,pass",
         [f"{c.label},{_fmt(c.lhs)},{_fmt(c.rhs)},{_fmt(c.ratio)},"
          f"{_fmt(c.measure)},{int(c.passed)}" for c in ccases])
    record("curve_poincare", all(c.passed for c in ccases),
           f"{sum(c.passed for c in ccases)}/{len(ccases)} cases")

    # trace constant estimates
    trows = []
    tvals = []
    for n in (8, 16, 32):
        space = build_space(triangulate(square_domain(), n))
        rep = trace_poincare_estimate(space, n_random=100, seed=seed)
        trows.append(f"square,{n},{_fmt(rep.sampled_max)},{_fmt(rep.L_est)}")
        tvals.append(rep.L_est)
    space = build_space(triangulate(annulus_domain(), 16))
    rep_ann = trace_poincare_estimate(space, n_random=100, seed=seed)
    trows.append(f"annulus,16,{_fmt(rep_ann.sampled_max)},{_fmt(rep_ann.L_est)}")
    _csv(os.path.join(output_dir, "trace_poincare.csv"),
         "domain,n,sampled_max,L_est", trows)
    stable = max(tvals) <= 1.2 * min(tvals) and np.isfinite(rep_ann.L_est)
    record("trace_poincare", stable,
           f"square L in [{min(tvals):.6g}, {max(tvals):.6g}], "
           f"annulus L = {rep_ann.L_est:.6g}")

    # the counterexample
    cx = poincare_counterexample(1.0, 2.0, 16)
    _csv(os.path.join(output_dir, "counterexample.csv"),
         "quantity,value",
         [f"tangential_seminorm,{_fmt(cx.tangential_seminorm)}",
          f"boundary_mass_sq,{_fmt(cx.boundary_mass_sq)}",
          f"expected_mass_sq,{_fmt(cx.expected_mass_sq)}",
          f"node_deviation,{_fmt(cx.node_deviation)}"])
    record("counterexample", cx.passed,
           f"seminorm {cx.tangential_seminorm:.3g}, "
           f"mass {cx.boundary_mass_sq:.6g} vs {cx.expected_mass_sq:.6g}")

    # coercivity across domains and coefficient sets
    domains = [("square", square_domain()), ("annulus", annulus_domain()),
               ("cable", cable_domain())]
    coeff_sets = [
        ("a2=1,a0=0", ConstantCoefficient(1.0), ZERO),
        ("a2=0.1,a0=1", ConstantCoefficient(0.1), ConstantCoefficient(1.0)),
        ("a2=10,a0=0", ConstantCoefficient(10.0), ZERO),
        ("a2=3+x,a0=0", FieldCoefficient(QuadraticField(3.0, 1.0)), ZERO),
        ("a2=3+x+y2/4,a0=1+y2/4",
         FieldCoefficient(QuadraticField(3.0, 1.0, 0, 0, 0, 0.25)),
         FieldCoefficient(QuadraticField(1.0, 0, 0, 0, 0, 0.25))),
    ]
    crow, call_ok = [], True
    for dname, dom in domains:
        mesh = triangulate(dom, 16)
        space = build_space(mesh)
        sets = list(coeff_sets)
        if dname == "cable":
            sets.append(("a2=inv_curvature,a0=0", InverseCurvature(), ZERO))
        for label, a2, a0 in sets:
            system = assemble_bilinear(space, a2, a0)
            bound = system.bounds.coercivity_constant()
            quotient = coercivity_eigencheck(system.matrix_shifted,
                                             system.gram_v0(), seed=seed)
            ok = quotient >= bound - 1e-8
            call_ok = call_ok and ok
            crow.append(
                f"{dname},{label},{_fmt(system.bounds.lambda2)},"
                f"{_fmt(system.bounds.grad_bound)},{_fmt(system.sigma0)},"
                f"{_fmt(bound)},{_fmt(quotient)},{_fmt(quotient - bound)},"
                f"{int(ok)}")
    _csv(os.path.join(output_dir, "coercivity.csv"),
         "domain,set,lambda2,grad_bound,sigma0,bound,min_quotient,margin,pass",
         crow)
    record("coercivity", call_ok, f"{len(crow)} domain/coefficient cases")

    # continuity on the cable problem
    mesh = triangulate(cable_domain(), 16)
    space = build_space(mesh)
    system = assemble_bilinear(space, InverseCurvature(), ZERO)
    L_here = trace_poincare_estimate(space, n_random=100, seed=seed).L_est
    cont = continuity_check(system.matrix, system.gram_v0(), system.bounds,
                            L_here, n_random=100, seed=seed + 1)
    _csv(os.path.join(output_dir, "continuity.csv"),
         "domain,n_pairs,bound,max_ratio,pass",
         [f"cable,{cont.n_pairs},{_fmt(cont.bound)},{_fmt(cont.max_ratio)},"
          f"{int(cont.passed)}"])
    record("continuity", cont.passed,
           f"max ratio {cont.max_ratio:.6g} vs bound {cont.bound:.6g}")

    # weak residual, independent quadrature
    wrows, w_ok = [], True
    sq_problem = square_affine_problem()
    sq_sol = solve_ventcel(sq_problem, n=8)
    r1 = weak_residual_check(sq_sol, sq_problem, n_random=100, seed=seed + 2)
    wrows.append(f"square_affine,{_fmt(r1.max_residual)},{_fmt(r1.threshold)},"
                 f"{int(r1.passed)}")
    w_ok = w_ok and r1.passed

    cb_problem = cable_problem()
    cb_sol = solve_ventcel(cb_problem, n=32)
    r2 = weak_residual_check(cb_sol, cb_problem, n_random=100, seed=seed + 3)
    wrows.append(f"cable,{_fmt(r2.max_residual)},{_fmt(r2.threshold)},"
                 f"{int(r2.passed)}")
    w_ok = w_ok and r2.passed

    bad = sq_sol.values.copy()
    bad[sq_sol.space.free[len(sq_sol.space.free) // 2]] += 1e-3
    r3 = weak_residual_check(sq_sol, sq_problem, n_random=100, seed=seed + 2,
                             values=bad)
    fault_seen = r3.max_residual > 1e-6
    wrows.append(f"square_affine_fault,{_fmt(r3.max_residual)},1e-06,"
                 f"{int(fault_seen)}")
    w_ok = w_ok and fault_seen
    _csv(os.path.join(output_dir, "weak_residual.csv"),
         "case,max_residual,threshold,pass", wrows)
    record("weak_residual", w_ok,
           f"max {max(r1.max_residual, r2.max_residual):.3g}, "
           f"fault residual {r3.max_residual:.3g}")

    # integration by parts
    ibps = ibp_identity_suite()
    _csv(os.path.join(output_dir, "ibp.csv"),
         "label,lhs,rhs,residual,tol,pass",
         [f"{r.label},{_fmt(r.lhs)},{_fmt(r.rhs)},{_fmt(r.residual)},"
          f"{_fmt(r.tol)},{int(r.passed)}" for r in ibps])
    record("ibp_identity", all(r.passed for r in ibps),
           f"{sum(r.passed for r in ibps)}/{len(ibps)} cases, "
           f"worst residual {max(r.residual for r in ibps):.3g}")

    # cable compatibility
    comp = compatibility_check()
    _csv(os.path.join(output_dir, "compatibility.csv"),
         "quantity,value",
         [f"max_tangential_hessian,{_fmt(comp.max_tangential_hessian)}",
          f"max_equivalence_residual,{_fmt(comp.max_equivalence_residual)}",
          f"second_difference_coarse,{_fmt(comp.second_difference_coarse)}",
          f"second_difference_fine,{_fmt(comp.second_difference_fine)}"])
    record("compatibility", comp.passed,
           f"|u_tt| {comp.max_tangential_hessian:.3g}, "
           f"equivalence {comp.max_equivalence_residual:.3g}")

    # convergence studies
    conv_cable = manufactured_convergence(cable_problem(), n0=8, levels=4)
    conv_cable.write_csv(os.path.join(output_dir, "convergence_cable.csv"))
    o2, ov, _ = conv_cable.observed_orders
    finest = conv_cable.rows[-1][2]
    ok = (o2 >= 1.8 and ov >= 0.9 and finest < 1e-3 and conv_cable.monotone())
    record("convergence_cable", ok,
           f"orders L2 {o2:.3f}, V0 {ov:.3f}, finest L2 {finest:.3g}")

    conv_sq = manufactured_convergence(square_affine_problem(), n0=8, levels=3)
    conv_sq.write_csv(os.path.join(output_dir, "convergence_square.csv"))
    worst_sq = max(max(r[2], r[3], r[4]) for r in conv_sq.rows)
    record("convergence_square", worst_sq < 1e-10,
           f"worst error {worst_sq:.3g} (exact reproduction)")

    conv_ann = manufactured_convergence(annulus_log_problem(), n0=8, levels=3)
    conv_ann.write_csv(os.path.join(output_dir, "convergence_annulus.csv"))
    o2a, _, _ = conv_ann.observed_orders
    record("convergence_annulus", o2a >= 1.8 and conv_ann.monotone(),
           f"order L2 {o2a:.3f}")

    # uniqueness sweep on the unshifted systems
    urows, u_ok = [], True
    mesh = triangulate(square_domain(), 8)
    space = build_space(mesh)
    for base in (0.1, 1.0, 10.0):
        for variable in (False, True):
            for a0c in (0.0, 1.0):
                if variable:
                    a2 = FieldCoefficient(QuadraticField(base, 0.3 * base))
                    label = f"a2={base:g}(1+0.3x)"
                else:
                    a2 = ConstantCoefficient(base)
                    label = f"a2={base:g}"
                a0 = ConstantCoefficient(a0c)
                system = assemble_bilinear(space, a2, a0)
                diag = uniqueness_diagnostic(system, seed=seed)
                ok = (not diag.singular) and diag.rcond > 1e-12
                u_ok = u_ok and ok
                urows.append(f"{label} a0={a0c:g},{diag.n_free},"
                             f"{_fmt(diag.rcond)},{_fmt(diag.sigma_min)},"
                             f"{int(ok)}")
    zero_sol = solve_ventcel(VentcelProblem(
        domain=square_domain(), a2=ConstantCoefficient(1.0),
        a0=ConstantCoefficient(1.0), phi=ZERO), n=8)
    zmax = float(np.abs(zero_sol.values).max())
    u_ok = u_ok and zmax < 1e-12
    urows.append(f"zero_data,{zero_sol.space.n_free},,{_fmt(zmax)},"
                 f"{int(zmax < 1e-12)}")
    _csv(os.path.join(output_dir, "uniqueness.csv"),
         "label,n_free,rcond,sigma_min,pass", urows)
    record("uniqueness", u_ok, f"{len(urows)} systems, zero-data max {zmax:.3g}")

    result = SuiteResult(all(ok for _, ok, _ in lines), lines, output_dir)
    _write_text(os.path.join(output_dir, "summary.txt"),
                  result.summary_text())
    return result
