import numpy as np
import pytest

from ventcelfem.geometry import (
    CABLE_HALF_WIDTH,
    CableArc,
    Circle,
    Curve,
    Segment,
    boundary_field_sample,
    equivalence_residual,
    frame_derivatives,
)
from ventcelfem.fields import EXACT_SOLUTIONS, QuadraticField

COORD_X, COORD_Y = QuadraticField(0.0, 1.0), QuadraticField(0.0, 0.0, 1.0)


def tangent_normal(curve, t):
    """Unit tangent and outward normal: frame derivatives of x and y."""
    tx, _, nx, _ = frame_derivatives(COORD_X, curve, t)
    ty, _, ny, _ = frame_derivatives(COORD_Y, curve, t)
    return np.stack([tx, ty], axis=-1), np.stack([nx, ny], axis=-1)


# frozen reference values for the cable arc
Y_AT_ZERO = 2.0 ** (-1.0 / 3.0)            # 0.7937005259840998
KAPPA_AT_ZERO = 2.0 ** (-2.0 / 3.0)        # 0.6299605249474366


def test_half_width_constant():
    c = CABLE_HALF_WIDTH
    # c^3 = 1/2 + 1/sqrt(2), the width where the arc meets the walls
    assert abs(c**3 - (0.5 + 2.0**-0.5)) < 1e-15
    assert abs(c - 1.0647522420095383) < 1e-14


def test_cable_endpoint_positions():
    curve = CableArc()
    p0 = curve.point(np.array(0.0))
    assert abs(p0[0]) < 1e-15
    assert abs(p0[1] - Y_AT_ZERO) < 1e-14
    for t, sx in ((1.0, 1.0), (-1.0, -1.0)):
        p = curve.point(np.array(t))
        assert abs(p[0] - sx * CABLE_HALF_WIDTH) < 1e-13
        assert abs(p[1] - CABLE_HALF_WIDTH) < 1e-13


def test_cable_symmetry():
    curve = CableArc()
    t = np.linspace(0.0, 1.0, 57)
    left = curve.point(-t)
    right = curve.point(t)
    assert np.allclose(left[:, 0], -right[:, 0], atol=1e-14)
    assert np.allclose(left[:, 1], right[:, 1], atol=1e-14)


def test_curvature_closed_form_matches_derivatives():
    curve = CableArc()
    t = np.linspace(-1.0, 1.0, 1000)
    generic = curve.curvature(t)
    closed = curve.curvature_closed_form(t)
    rel = np.abs(generic - closed) / np.abs(closed)
    assert rel.max() < 1e-10
    assert abs(curve.curvature(np.array(0.0)) - KAPPA_AT_ZERO) < 1e-14


def test_curvature_strictly_positive():
    curve = CableArc()
    t = np.linspace(-1.0, 1.0, 10000)
    assert np.all(curve.curvature(t) > 0.0)


def test_curvature_dt_matches_difference_quotient():
    curve = CableArc()
    t = np.linspace(-0.95, 0.95, 101)
    h = 1e-6
    fd = (curve.curvature_closed_form(t + h)
          - curve.curvature_closed_form(t - h)) / (2 * h)
    exact = curve.curvature_dt(t)
    assert np.abs(fd - exact).max() < 1e-6 * (1.0 + np.abs(exact).max())


def test_arc_length_against_dense_simpson():
    curve = CableArc()
    n = 2**16
    t = np.linspace(curve.t0, curve.t1, n + 1)
    sp = curve.speed(t)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    oracle = float(np.sum(w * sp)) * (t[1] - t[0]) / 3.0
    assert abs(curve.total_length - oracle) < 1e-11 * oracle


def test_arc_length_monotone_and_invertible():
    curve = CableArc()
    L = curve.total_length
    s = np.linspace(0.0, L, 237)
    t = curve.param_at_arc_length(s)
    assert np.all(np.diff(t) > 0)
    back = curve.arc_length(t)
    assert np.abs(back - s).max() < 1e-10 * L


def test_tangent_normal_orthonormal_and_outward():
    curve = CableArc()
    t = np.linspace(-1.0, 1.0, 83)
    tau, nu = tangent_normal(curve, t)
    assert np.abs(np.einsum("id,id->i", tau, tau) - 1).max() < 1e-13
    assert np.abs(np.einsum("id,id->i", nu, nu) - 1).max() < 1e-13
    assert np.abs(np.einsum("id,id->i", tau, nu)).max() < 1e-13
    # the region lies below the arc; outward points up at the apex
    _, nu0 = tangent_normal(curve, np.array(0.0))
    assert nu0[1] > 0.99


def test_circle_basics():
    circle = Circle(2.0)
    quarter = circle.arc_length(np.array(np.pi / 2))
    assert abs(quarter - np.pi) < 1e-12
    t = np.linspace(0, 2 * np.pi, 50)
    assert np.abs(circle.curvature(t) - 0.5).max() < 1e-14
    # outward normal of a disk for normal_sign = -1
    _, nu = tangent_normal(circle, np.array(0.0))
    assert abs(nu[0] - 1.0) < 1e-14 and abs(nu[1]) < 1e-14


def test_segment_basics():
    seg = Segment((0.0, 0.0), (3.0, 4.0))
    assert abs(seg.total_length - 5.0) < 1e-13
    assert np.abs(seg.curvature(np.linspace(0, 1, 11))).max() == 0.0


def test_reparametrization_invariance():
    base = CableArc()

    def phi(s):
        return -1.0 + (s**3 + s)
    def dphi(s):
        return 3.0 * s**2 + 1.0
    def d2phi(s):
        return 6.0 * s

    class Reparametrized(Curve):
        """The cable arc under t = phi(s), s in [0, 1]."""

        t0, t1 = 0.0, 1.0

        def point(self, s):
            return base.point(phi(s))

        def velocity(self, s):
            return base.velocity(phi(s)) * dphi(s)[..., None]

        def acceleration(self, s):
            return (base.acceleration(phi(s)) * dphi(s)[..., None] ** 2
                    + base.velocity(phi(s)) * d2phi(s)[..., None])

    curve = Reparametrized()
    s = np.linspace(0.0, 1.0, 41)
    assert np.allclose(curve.point(s), base.point(phi(s)), atol=1e-14)
    assert np.abs(curve.curvature(s) - base.curvature(phi(s))).max() < 1e-8
    assert abs(curve.total_length - base.total_length) < 1e-8


@pytest.mark.parametrize("name", ["harmonic_cubic", "affine"])
def test_arc_derivative_matches_tangential_gradient(name):
    field = EXACT_SOLUTIONS[name]
    curve = CableArc()
    t = np.linspace(-0.99, 0.99, 211)
    samp = boundary_field_sample(field, curve, t)
    tau, _ = tangent_normal(curve, t)
    g = field.grad(curve.point(t))
    u_tau = np.einsum("id,id->i", tau, g)
    assert np.abs(samp.u_s - u_tau).max() < 1e-10
    assert np.abs(samp.u_tau - u_tau).max() < 1e-13


def test_equivalence_identity_on_cable():
    field = EXACT_SOLUTIONS["harmonic_cubic"]
    curve = CableArc()
    t = np.linspace(-1.0, 1.0, 1000)
    res = equivalence_residual(field, curve, t)
    assert np.max(res) < 1e-6


def test_equivalence_identity_wraps_on_circle():
    field = QuadraticField(0, 0, 0, 1.0, 0, -1.0)   # x^2 - y^2
    circle = Circle(2.0)
    # includes the parameter seam at t = 0
    t = np.array([0.0, 1e-9, np.pi / 3, np.pi, 2 * np.pi - 1e-9])
    res = equivalence_residual(field, circle, t)
    assert np.max(res) < 1e-6


def test_boundary_sample_second_derivative():
    # on the circle, u = x restricted is R cos(s/R); u_ss = -u / R^2
    field = QuadraticField(0.0, 1.0)
    circle = Circle(2.0)
    t = np.linspace(0.0, 2 * np.pi, 97)
    samp = boundary_field_sample(field, circle, t)
    u = field.value(circle.point(t))
    assert np.abs(samp.u_ss + u / 4.0).max() < 1e-6
