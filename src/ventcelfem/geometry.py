"""Parametric boundary curves and differential geometry along them.

Plane curves are twice continuously differentiable parametrizations
r(t) = (x(t), y(t)) with nonvanishing velocity; two derivatives are
required throughout (curvature, second tangential derivatives), so
boundary arcs must be C2.

The module provides the closed-form curve family used by the built-in
domains (a strictly convex "cable" arc, circles, straight segments),
arc length as a monotone reparametrization with an accurate inverse,
parametric curvature, and the first and second tangential and the
normal derivatives of a plane field in a curve's unit tangent /
outward normal frame.

Curve parameters come in as a float ndarray of any shape (0-d too), and
every result has that shape, plus a trailing axis 2 for points and vectors.
"""

from __future__ import annotations

import math
from functools import cached_property

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
    # Cumulative arc length on ARC_PANELS uniform parameter panels, each
    # integrated by composite Simpson with 16 subpanels (on every curve a
    # domain builds, 8 subpanels already agree with 16 to 1e-13 relative).
    # Partial panels use 8 subpanels, so s(t) is smooth enough for the
    # Newton inverse, which is polished to machine precision (well inside
    # the 1e-10 * length contract).

    ARC_PANELS = 4096

    @cached_property
    def _arc_grid(self):
        """Parameters and cumulative arc lengths at the panel ends."""
        tg = np.linspace(self.t0, self.t1, self.ARC_PANELS + 1)
        incr = self._simpson(tg[:-1], tg[1:], 16)
        return tg, np.concatenate([[0.0], np.cumsum(incr)])

    def _simpson(self, a, b, m):
        # composite Simpson with m subpanels on each [a_i, b_i]; one flat
        # matrix-vector product sums them all, so no sum depends on a's shape
        xi = np.linspace(0.0, 1.0, 2 * m + 1)
        t = a[..., None] + (b - a)[..., None] * xi
        f = self.speed(t)
        w = np.ones(2 * m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return (b - a) / (6.0 * m) * (f.reshape(-1, 2 * m + 1) @ w).reshape(
            f.shape[:-1])

    @property
    def total_length(self) -> float:
        return float(self._arc_grid[1][-1])

    def arc_length(self, t):
        """Arc length s(t) from t0, monotone in t, relative accuracy 1e-10.

        t is clipped to [t0, t1]; every caller passes values inside it.
        """
        t_grid, s_grid = self._arc_grid
        t = np.clip(t, self.t0, self.t1)
        k = np.clip(np.searchsorted(t_grid, t, side="right") - 1,
                    0, len(t_grid) - 2)
        return s_grid[k] + self._simpson(t_grid[k], t, 8)

    def param_at_arc_length(self, s):
        """Inverse of ``arc_length``: |arc_length(t(s)) - s| < 1e-10 * length.

        s is clipped to [0, total_length].
        """
        t_grid, s_grid = self._arc_grid
        L = self.total_length
        s = np.clip(s, 0.0, L)
        t = np.interp(s, s_grid, t_grid)
        for _ in range(60):
            resid = self.arc_length(t) - s
            if np.all(np.abs(resid) <= 64 * _EPS * max(L, 1.0)):
                break
            t = np.clip(t - resid / self.speed(t), self.t0, self.t1)
        return t

    def token(self) -> str:
        raise NotImplementedError


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

    t0 = -1.0
    normal_sign = 1  # (-y', x') points up and away from the graph region

    def token(self):
        return "cable"

    @staticmethod
    def _rho(t):
        return np.sqrt(1.0 + t * t)

    def point(self, t):
        rho = self._rho(t)
        y = (2.0 - rho) ** (-2.0 / 3.0) * (1.0 + rho) ** (-1.0 / 3.0)
        return np.stack([t * y, y], axis=-1)

    def velocity(self, t):
        rho = self._rho(t)
        y = (2.0 - rho) ** (-2.0 / 3.0) * (1.0 + rho) ** (-1.0 / 3.0)
        dy = t * (2.0 - rho) ** (-5.0 / 3.0) * (1.0 + rho) ** (-4.0 / 3.0)
        return np.stack([y + t * dy, dy], axis=-1)

    def acceleration(self, t):
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
        rho = self._rho(t)
        return (
            (2.0 - rho) ** (5.0 / 3.0)
            * (1.0 + rho) ** (5.0 / 6.0)
            / (2.0**1.5 * rho**2.5)
        )

    def curvature_dt(self, t):
        """d(kappa)/dt from the logarithmic derivative of the closed form."""
        rho = self._rho(t)
        kappa = self.curvature_closed_form(t)
        dlog = -(5.0 / 3.0) / (2.0 - rho) + (5.0 / 6.0) / (1.0 + rho) - 2.5 / rho
        return kappa * dlog * (t / rho)


class Circle(Curve):
    """Circular arc r(t) = R (cos t, sin t) about the origin on [t_lo, t_hi].

    Closed when the range spans 2 pi (to 1e-12).
    """

    def __init__(self, radius, normal_sign=-1, t_range=(0.0, 2.0 * math.pi)):
        self.radius = float(radius)
        self.normal_sign = int(normal_sign)
        self.t0, self.t1 = float(t_range[0]), float(t_range[1])
        self.closed = abs((self.t1 - self.t0) - 2.0 * math.pi) < 1e-12

    def point(self, t):
        return self.radius * np.stack([np.cos(t), np.sin(t)], axis=-1)

    def velocity(self, t):
        return self.radius * np.stack([-np.sin(t), np.cos(t)], axis=-1)

    def acceleration(self, t):
        return self.radius * np.stack([-np.cos(t), -np.sin(t)], axis=-1)

    def curvature_dt(self, t):
        return np.zeros_like(t)

    def token(self):
        # only a domain's full circles serialize, each about the origin;
        # "0;0" keeps the token format
        return "circle;%s;0;0;%+d" % (format(self.radius, ".17g"),
                                      self.normal_sign)


class Segment(Curve):
    """Straight segment from p0 to p1 on the unit parameter interval."""

    def __init__(self, p0, p1, normal_sign=1):
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        self.normal_sign = int(normal_sign)

    def point(self, t):
        return self.p0 + t[..., None] * (self.p1 - self.p0)

    def velocity(self, t):
        return np.broadcast_to(self.p1 - self.p0, t.shape + (2,)).copy()

    def acceleration(self, t):
        return np.zeros(t.shape + (2,))

    def curvature_dt(self, t):
        return np.zeros_like(t)

    def token(self):
        vals = [self.p0[0], self.p0[1], self.p1[0], self.p1[1]]
        return "segment;" + ";".join(format(v, ".17g") for v in vals) + \
            ";%+d" % self.normal_sign


def tangential_derivative(d1, g):
    """Derivative of a field with gradient g along the unit tangent d1/|d1|."""
    return (d1[..., 0] * g[..., 0] + d1[..., 1] * g[..., 1]) / np.hypot(
        d1[..., 0], d1[..., 1])


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
    u_tau = tangential_derivative(d1, g)
    u_tt = (
        d1[..., 0] ** 2 * H[..., 0, 0]
        + 2.0 * d1[..., 0] * d1[..., 1] * H[..., 0, 1]
        + d1[..., 1] ** 2 * H[..., 1, 1]
    ) / sp**2
    u_nu = curve.normal_sign * (d1[..., 0] * g[..., 1] - d1[..., 1] * g[..., 0]) / sp
    kappa_oriented = curve.normal_sign * curve.curvature(t)
    return u_tau, u_tt, u_nu, kappa_oriented


def equivalence_residual(field, curve: Curve, t):
    """|u_ss - u_tautau - kappa u_nu| at t, u_ss by differences.

    u_ss is the centred second difference along arc length with step
    h = 1e-4 * length, shrunk on an open curve so that s +/- 2h stays
    on it.  Where that leaves h below 2.5e-5 * length (within
    5e-5 * length of an open curve's end) it is the second-order
    one-sided difference (2 u_0 - 5 u_1 + 4 u_2 - u_3) / h^2 at
    h = 1e-4 * length, stepping into the curve.  Small values certify
    that both routes to the tangential Laplacian agree.
    """
    _, u_tt, u_nu, kappa_oriented = frame_derivatives(field, curve, t)
    u_ss_curv = u_tt + kappa_oriented * u_nu

    L = curve.total_length
    s0 = curve.arc_length(t)
    h = np.full_like(s0, 1e-4 * L)
    if not curve.closed:
        h = np.minimum(h, np.minimum(s0, L - s0) / 2.0)
    ok = h >= 2.5e-5 * L

    def uval(s):
        s = np.mod(s, L) if curve.closed else s
        return field.value(curve.point(curve.param_at_arc_length(s)))

    res = np.empty_like(u_ss_curv)
    si, hi = s0[ok], h[ok]
    if si.size:
        uc = field.value(curve.point(t[ok]))
        u_ss = (uval(si + hi) - 2.0 * uc + uval(si - hi)) / hi**2
        res[ok] = np.abs(u_ss - u_ss_curv[ok])
    se = s0[~ok]
    if se.size:
        he = np.where(se < 0.5 * L, 1e-4 * L, -1e-4 * L)
        u0 = field.value(curve.point(t[~ok]))
        u_ss = (2.0 * u0 - 5.0 * uval(se + he) + 4.0 * uval(se + 2.0 * he)
                - uval(se + 3.0 * he)) / he**2
        res[~ok] = np.abs(u_ss - u_ss_curv[~ok])
    return res
