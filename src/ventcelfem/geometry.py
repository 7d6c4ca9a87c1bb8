"""Parametric boundary curves and differential geometry along them.

Plane curves are twice continuously differentiable parametrizations
r(t) = (x(t), y(t)) with nonvanishing velocity; two derivatives are
required throughout (curvature, arc-length sampling, second tangential
derivatives), so boundary arcs must be C2.

The module provides the closed-form curve family used by the built-in
domains (a strictly convex "cable" arc, circles, straight segments),
arc length as a monotone reparametrization with an accurate inverse,
parametric curvature, and sampling of a scalar field restricted to a
curve: tangential first and second derivatives both in the unit
tangent / outward normal frame and along arc length, plus the normal
derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(float).eps)

# Half-width of the cable arc: x(1) = y(1), cubed it equals 1/2 + 1/sqrt(2).
CABLE_HALF_WIDTH = (0.5 + 2.0 ** -0.5) ** (1.0 / 3.0)


class Curve:
    """Twice-differentiable parametric plane curve on [t0, t1].

    Attributes
    ----------
    t0, t1 : float
        Parameter range, t0 < t1.
    closed : bool
        True when r(t0) == r(t1) and all frames match periodically.
    normal_sign : int
        Orientation flag owned by the domain: +1 when the rotated
        velocity (-y', x')/|r'| already points out of the domain,
        -1 when the outward normal is its negative.

    ``curvature`` always reports the raw parametric value
    (x'y'' - y'x'')/|r'|^3 regardless of ``normal_sign``;
    oriented quantities multiply by the sign explicitly.
    """

    name = "curve"
    t0 = 0.0
    t1 = 1.0
    closed = False
    normal_sign = 1

    def point(self, t):
        raise NotImplementedError

    def velocity(self, t):
        raise NotImplementedError

    def acceleration(self, t):
        raise NotImplementedError

    # derived quantities ------------------------------------------------

    def speed(self, t):
        d = self.velocity(t)
        return np.hypot(d[..., 0], d[..., 1])

    def curvature(self, t):
        """Parametric curvature (x'y'' - y'x'') / |r'|^3."""
        d1 = self.velocity(t)
        d2 = self.acceleration(t)
        cross = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
        sp = np.hypot(d1[..., 0], d1[..., 1])
        return cross / sp**3

    # arc length ---------------------------------------------------------

    @property
    def _table(self) -> "ArcLengthTable":
        tab = getattr(self, "_arc_table", None)
        if tab is None:
            tab = ArcLengthTable(self)
            self._arc_table = tab
        return tab

    @property
    def total_length(self) -> float:
        return self._table.total_length

    def arc_length(self, t):
        """Arc length s(t) from t0, monotone in t, relative accuracy 1e-10."""
        return self._table.s_of_t(t)

    def param_at_arc_length(self, s):
        """Inverse of ``arc_length``: |arc_length(t(s)) - s| < 1e-10 * length."""
        return self._table.t_of_s(s)

    def token(self) -> str:
        raise NotImplementedError(f"curve {self.name!r} has no serial form")

    def __eq__(self, other):
        try:
            return isinstance(other, Curve) and self.token() == other.token()
        except NotImplementedError:
            return self is other

    def __hash__(self):
        try:
            return hash(self.token())
        except NotImplementedError:
            return id(self)

    def __repr__(self):
        try:
            return f"<Curve {self.token()}>"
        except NotImplementedError:
            return f"<Curve {self.name}>"


class CableArc(Curve):
    """Strictly convex graph arc forming the curved edge of the cable domain.

    Parametrized on t in [-1, 1] with rho = sqrt(1 + t^2):

        y(t) = (2 - rho)^(-2/3) (1 + rho)^(-1/3),   x(t) = t y(t)

    The arc is symmetric in x, has positive curvature everywhere, and
    x is strictly increasing, so the region between the arc and the x
    axis is a graph domain.  Curvature and its parameter derivative
    have closed forms used as independent cross-checks and to
    differentiate curvature-based coefficients exactly.
    """

    name = "cable"
    t0 = -1.0
    t1 = 1.0
    closed = False
    normal_sign = 1  # (-y', x') points up and away from the graph region

    def token(self):
        return "cable"

    @staticmethod
    def _rho(t):
        return np.sqrt(1.0 + t * t)

    def point(self, t):
        t = np.asarray(t, dtype=float)
        rho = self._rho(t)
        y = (2.0 - rho) ** (-2.0 / 3.0) * (1.0 + rho) ** (-1.0 / 3.0)
        return np.stack([t * y, y], axis=-1)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        rho = self._rho(t)
        y = (2.0 - rho) ** (-2.0 / 3.0) * (1.0 + rho) ** (-1.0 / 3.0)
        dy = t * (2.0 - rho) ** (-5.0 / 3.0) * (1.0 + rho) ** (-4.0 / 3.0)
        return np.stack([y + t * dy, dy], axis=-1)

    def acceleration(self, t):
        t = np.asarray(t, dtype=float)
        rho = self._rho(t)
        dy = t * (2.0 - rho) ** (-5.0 / 3.0) * (1.0 + rho) ** (-4.0 / 3.0)
        d2y = (
            (2.0 - rho) ** (-8.0 / 3.0)
            * (1.0 + rho) ** (-7.0 / 3.0)
            * (1.0 - rho + 2.0 * rho**3)
            / rho
        )
        return np.stack([2.0 * dy + t * d2y, d2y], axis=-1)

    def curvature_closed_form(self, t):
        """Closed-form curvature (2-rho)^(5/3) (1+rho)^(5/6) / (2^(3/2) rho^(5/2))."""
        rho = self._rho(np.asarray(t, dtype=float))
        return (
            (2.0 - rho) ** (5.0 / 3.0)
            * (1.0 + rho) ** (5.0 / 6.0)
            / (2.0**1.5 * rho**2.5)
        )

    def curvature_dt(self, t):
        """d(kappa)/dt from the logarithmic derivative of the closed form."""
        t = np.asarray(t, dtype=float)
        rho = self._rho(t)
        kappa = self.curvature_closed_form(t)
        dlog = -(5.0 / 3.0) / (2.0 - rho) + (5.0 / 6.0) / (1.0 + rho) - 2.5 / rho
        return kappa * dlog * (t / rho)


class Circle(Curve):
    """Circular arc r(t) = center + R (cos t, sin t) on [t_lo, t_hi]."""

    name = "circle"

    def __init__(self, radius, center=(0.0, 0.0), normal_sign=-1,
                 t_range=(0.0, 2.0 * math.pi), closed=None):
        if radius <= 0:
            raise ValueError("circle radius must be positive")
        self.radius = float(radius)
        self.center = (float(center[0]), float(center[1]))
        self.normal_sign = int(normal_sign)
        self.t0, self.t1 = float(t_range[0]), float(t_range[1])
        if closed is None:
            closed = abs((self.t1 - self.t0) - 2.0 * math.pi) < 1e-12
        self.closed = bool(closed)

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return np.stack(
            [self.center[0] + self.radius * np.cos(t),
             self.center[1] + self.radius * np.sin(t)], axis=-1)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        return self.radius * np.stack([-np.sin(t), np.cos(t)], axis=-1)

    def acceleration(self, t):
        t = np.asarray(t, dtype=float)
        return self.radius * np.stack([-np.cos(t), -np.sin(t)], axis=-1)

    def curvature_dt(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def token(self):
        if not self.closed:
            raise NotImplementedError("only full circles serialize")
        return "circle;%s;%s;%s;%+d" % (
            format(self.radius, ".17g"),
            format(self.center[0], ".17g"),
            format(self.center[1], ".17g"),
            self.normal_sign,
        )


class Segment(Curve):
    """Straight segment from p0 to p1 on the unit parameter interval."""

    name = "segment"
    t0 = 0.0
    t1 = 1.0
    closed = False

    def __init__(self, p0, p1, normal_sign=1):
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        if not np.hypot(*(self.p1 - self.p0)) > 0:
            raise ValueError("segment endpoints coincide")
        self.normal_sign = int(normal_sign)

    def point(self, t):
        t = np.asarray(t, dtype=float)[..., None]
        return self.p0 + t * (self.p1 - self.p0)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(self.p1 - self.p0, t.shape + (2,)).copy()

    def acceleration(self, t):
        t = np.asarray(t, dtype=float)
        return np.zeros(t.shape + (2,))

    def curvature_dt(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def token(self):
        vals = [self.p0[0], self.p0[1], self.p1[0], self.p1[1]]
        return "segment;" + ";".join(format(v, ".17g") for v in vals) + \
            ";%+d" % self.normal_sign


class ArcLengthTable:
    """Cumulative arc length on a uniform parameter grid.

    4096 uniform panels; each panel integral is a composite Simpson rule
    refined by doubling until successive values agree to 1e-13 relative.
    Partial panels reuse the same rule, so s(t) is smooth enough for the
    Newton inverse, which is polished to machine precision (well inside
    the 1e-10 * length contract).
    """

    N_PANELS = 4096

    def __init__(self, curve: Curve, n_panels: int | None = None):
        self.curve = curve
        n = int(n_panels or self.N_PANELS)
        tg = np.linspace(curve.t0, curve.t1, n + 1)
        incr = self._panel_integrals(tg[:-1], tg[1:])
        if np.any(incr <= 0):
            raise ValueError("curve velocity vanishes inside a panel")
        self.t_grid = tg
        self.s_grid = np.concatenate([[0.0], np.cumsum(incr)])
        self.total_length = float(self.s_grid[-1])

    def _panel_integrals(self, a, b, m0=8, cap=256):
        prev = self._simpson(a, b, m0)
        m = m0 * 2
        while m <= cap:
            cur = self._simpson(a, b, m)
            bad = np.abs(cur - prev) > 1e-13 * (np.abs(cur) + 1e-300)
            if not np.any(bad):
                return cur
            prev = cur
            m *= 2
        return cur

    def _simpson(self, a, b, m):
        # composite Simpson with m subpanels on each [a_i, b_i], vectorized
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        xi = np.linspace(0.0, 1.0, 2 * m + 1)
        t = a[..., None] + (b - a)[..., None] * xi
        f = self.curve.speed(t)
        w = np.ones(2 * m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return (b - a) / (6.0 * m) * (f @ w)

    def s_of_t(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t).astype(float)
        lo, hi = self.curve.t0, self.curve.t1
        if np.any(tt < lo - 1e-12) or np.any(tt > hi + 1e-12):
            raise ValueError("parameter outside curve range")
        tt = np.clip(tt, lo, hi)
        k = np.clip(np.searchsorted(self.t_grid, tt, side="right") - 1,
                    0, len(self.t_grid) - 2)
        s = self.s_grid[k] + self._simpson(self.t_grid[k], tt, 8)
        return float(s[0]) if scalar else s.reshape(t.shape)

    def t_of_s(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        ss = np.atleast_1d(s).astype(float)
        L = self.total_length
        if np.any(ss < -1e-10 * L) or np.any(ss > L * (1 + 1e-10)):
            raise ValueError("arc length outside [0, total_length]")
        ss = np.clip(ss, 0.0, L)
        t = np.interp(ss, self.s_grid, self.t_grid)
        for _ in range(60):
            resid = self.s_of_t(t.reshape(-1)).reshape(t.shape) - ss
            if np.all(np.abs(resid) <= 64 * _EPS * max(L, 1.0)):
                break
            t = np.clip(t - resid / self.curve.speed(t),
                        self.curve.t0, self.curve.t1)
        return float(t[0]) if scalar else t.reshape(s.shape)


@dataclass
class BoundaryFieldSample:
    """Derivatives of a scalar field restricted to a boundary curve.

    u_tau, u_tautau are the first and second tangential derivatives in
    the unit-tangent frame, u_nu the outward normal derivative.  u_s and
    u_ss are arc-length derivatives by finite differences along the
    curve; u_ss_curvature is the second arc-length derivative obtained
    instead from u_tautau + kappa_oriented * u_nu.  For C2 fields
    u_s == u_tau (to 1e-10) and u_ss == u_ss_curvature (to 1e-6).
    """

    u_tau: np.ndarray
    u_tautau: np.ndarray
    u_nu: np.ndarray
    u_s: np.ndarray
    u_ss: np.ndarray
    u_ss_curvature: np.ndarray


def frame_derivatives(field, curve: Curve, t):
    """Derivatives of a plane field in the unit frame of a curve at t.

    Returns (u_tau, u_tt, u_nu, kappa_oriented): the first and second
    derivatives along the unit tangent, the outward normal derivative,
    and the curvature with the outward orientation, so that
    u_tt + kappa_oriented * u_nu is the second arc-length derivative of
    the field's restriction to the curve.
    """
    p = curve.point(t)
    d1 = curve.velocity(t)
    sp = np.hypot(d1[..., 0], d1[..., 1])
    g = field.grad(p)
    H = field.hess(p)
    u_tau = (d1[..., 0] * g[..., 0] + d1[..., 1] * g[..., 1]) / sp
    u_tt = (
        d1[..., 0] ** 2 * H[..., 0, 0]
        + 2.0 * d1[..., 0] * d1[..., 1] * H[..., 0, 1]
        + d1[..., 1] ** 2 * H[..., 1, 1]
    ) / sp**2
    u_nu = curve.normal_sign * (d1[..., 0] * g[..., 1] - d1[..., 1] * g[..., 0]) / sp
    kappa_oriented = curve.normal_sign * curve.curvature(t)
    return u_tau, u_tt, u_nu, kappa_oriented


def boundary_field_sample(field, curve: Curve, t, h_rel: float = 1e-4):
    """Sample tangential/normal derivatives of ``field`` on ``curve`` at t.

    ``field`` provides value/grad/hess on plane points (analytic fields,
    or a finite-difference wrapper).  Frame quantities come from the
    parametrization; u_s and u_ss use centered differences along arc
    length with step h = h_rel * total_length (4th order for u_s).  The
    step shrinks near the ends of an open curve; within 2.5e-4 * length
    of an endpoint the stencil no longer fits and the frame identities
    are substituted for the arc-length differences.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    tt = np.atleast_1d(t).astype(float)

    u_tau, u_tautau, u_nu, kappa_oriented = frame_derivatives(field, curve, tt)
    u_ss_curv = u_tautau + kappa_oriented * u_nu

    L = curve.total_length
    s0 = np.atleast_1d(curve.arc_length(tt)).astype(float)
    h = np.full_like(s0, h_rel * L)
    if not curve.closed:
        # shrink so the widest stencil point s +/- 2h stays on the curve
        room = np.minimum(s0, L - s0)
        h = np.minimum(h, room / 2.0)
    ok = h >= 0.25 * h_rel * L

    u_s = np.atleast_1d(u_tau).copy()
    u_ss = np.atleast_1d(u_ss_curv).copy()
    if np.any(ok):
        si, hi = s0[ok], h[ok]

        def uval(s):
            if curve.closed:
                s = np.mod(s, L)
            ts = curve.param_at_arc_length(s)
            return field.value(curve.point(ts))

        up1, um1 = uval(si + hi), uval(si - hi)
        up2, um2 = uval(si + 2 * hi), uval(si - 2 * hi)
        uc = field.value(curve.point(tt))
        uc = np.atleast_1d(uc)[ok]
        u_s[ok] = (-up2 + 8.0 * up1 - 8.0 * um1 + um2) / (12.0 * hi)
        u_ss[ok] = (up1 - 2.0 * uc + um1) / hi**2

    def out(a):
        return float(a[0]) if scalar else a.reshape(t.shape)

    return BoundaryFieldSample(
        u_tau=out(np.atleast_1d(u_tau)),
        u_tautau=out(np.atleast_1d(u_tautau)),
        u_nu=out(np.atleast_1d(u_nu)),
        u_s=out(u_s),
        u_ss=out(u_ss),
        u_ss_curvature=out(np.atleast_1d(u_ss_curv)),
    )


def equivalence_residual(field, curve: Curve, t):
    """|u_ss(FD along arc length) - u_tautau - kappa u_nu| at t.

    Measures how well the finite-difference second derivative along the
    curve matches the frame identity; small values certify that both
    routes to the tangential Laplacian agree.
    """
    smp = boundary_field_sample(field, curve, t)
    return np.abs(smp.u_ss - smp.u_ss_curvature)
