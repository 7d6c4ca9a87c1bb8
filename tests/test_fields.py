import numpy as np
import pytest

from ventcelfem import fields
from ventcelfem.domain import annulus_domain, square_domain
from ventcelfem.fields import (
    EXACT_SOLUTIONS,
    Coefficient,
    ConstantCoefficient,
    CubicHarmonic,
    FieldCoefficient,
    InverseCurvature,
    LogRadial,
    NodalCoefficient,
    ProductField,
    QuadraticField,
    ZERO,
    parse_coefficient,
)
from ventcelfem.geometry import CableArc, Circle
from ventcelfem.mesh import triangulate

RNG = np.random.default_rng(7)
PTS = RNG.uniform(-2.0, 2.0, size=(40, 2))


def test_quadratic_field_derivatives():
    f = QuadraticField(1.0, -2.0, 0.5, 3.0, -1.0, 0.25)
    x, y = PTS[:, 0], PTS[:, 1]
    want = 1 - 2 * x + 0.5 * y + 3 * x * x - x * y + 0.25 * y * y
    assert np.allclose(f.value(PTS), want, atol=1e-13)
    g = f.grad(PTS)
    assert np.allclose(g[:, 0], -2 + 6 * x - y, atol=1e-13)
    assert np.allclose(g[:, 1], 0.5 - x + 0.5 * y, atol=1e-13)
    h = f.hess(PTS)
    assert np.allclose(h[:, 0, 0], 6.0) and np.allclose(h[:, 1, 1], 0.5)
    assert np.allclose(h[:, 0, 1], -1.0) and np.allclose(h[:, 1, 0], -1.0)


def test_cubic_harmonic_is_harmonic():
    f = CubicHarmonic()
    h = f.hess(PTS)
    assert np.abs(h[:, 0, 0] + h[:, 1, 1]).max() < 1e-13
    assert np.allclose(f.value(PTS), PTS[:, 0] ** 3 - 3 * PTS[:, 0] * PTS[:, 1] ** 2)


def test_log_radial_normalization():
    f = LogRadial()
    assert abs(f.value(np.array([2.0, 0.0])) - 1.0) < 1e-15
    assert abs(f.value(np.array([0.0, 1.0]))) < 1e-15
    pts = PTS + np.array([4.0, 0.0])      # keep away from the origin
    h = f.hess(pts)
    assert np.abs(h[:, 0, 0] + h[:, 1, 1]).max() < 1e-12


def test_product_field_matches_expansion():
    # (x^2 - 4) * y expanded by hand
    f = ProductField(QuadraticField(-4.0, 0, 0, 1.0), QuadraticField(0, 0, 1.0))
    x, y = PTS[:, 0], PTS[:, 1]
    assert np.allclose(f.value(PTS), (x * x - 4) * y, atol=1e-12)
    g = f.grad(PTS)
    assert np.allclose(g[:, 0], 2 * x * y, atol=1e-12)
    assert np.allclose(g[:, 1], x * x - 4, atol=1e-12)
    h = f.hess(PTS)
    assert np.allclose(h[:, 0, 0], 2 * y, atol=1e-12)
    assert np.allclose(h[:, 0, 1], 2 * x, atol=1e-12)
    assert np.allclose(h[:, 1, 0], 2 * x, atol=1e-12)
    assert np.allclose(h[:, 1, 1], 0.0, atol=1e-12)


def test_exact_solution_registry():
    assert set(EXACT_SOLUTIONS) == {"harmonic_cubic", "affine", "log_radial"}
    aff = EXACT_SOLUTIONS["affine"]
    assert np.allclose(aff.value(PTS), PTS[:, 0] + PTS[:, 1])


def test_constant_coefficient_and_zero():
    c = ConstantCoefficient(2.5)
    assert np.all(c.eval_points(PTS) == 2.5)
    circle = Circle(2.0)
    t = np.linspace(0, 2 * np.pi, 9)
    assert np.all(c.eval_curve(circle, t) == 2.5)
    assert np.all(c.tangential_deriv(circle, t) == 0.0)
    assert np.all(ZERO.eval_points(PTS) == 0.0)


def test_field_coefficient_tangential_derivative():
    # x restricted to the circle of radius 2: d/ds = -sin(t)
    coef = FieldCoefficient(QuadraticField(0.0, 1.0))
    circle = Circle(2.0)
    t = np.linspace(0, 2 * np.pi, 33)
    assert np.abs(coef.tangential_deriv(circle, t) + np.sin(t)).max() < 1e-13


def test_base_tangential_derivative_raises():
    class Restriction(Coefficient):
        def eval_curve(self, curve, t):
            return curve.point(t)[..., 0] ** 2

    with pytest.raises(ValueError, match="Restriction"):
        Restriction().tangential_deriv(Circle(2.0), np.linspace(0.1, 6.0, 25))


def test_inverse_curvature_on_cable():
    inv = InverseCurvature()
    cable = CableArc()
    t = np.linspace(-0.9, 0.9, 41)
    vals = inv.eval_curve(cable, t)
    assert np.allclose(vals * cable.curvature(t), 1.0, atol=1e-13)
    analytic = inv.tangential_deriv(cable, t)
    # central difference in arc length, step 1e-6 * length
    h = 1e-6 * cable.total_length
    s = cable.arc_length(t)
    diff = (inv.eval_curve(cable, cable.param_at_arc_length(s + h))
            - inv.eval_curve(cable, cable.param_at_arc_length(s - h))) / (2 * h)
    assert np.abs(analytic - diff).max() < 1e-5 * (1 + np.abs(analytic).max())


def test_parse_coefficient_grammar():
    assert isinstance(parse_coefficient("const:2", role="a2"), ConstantCoefficient)
    poly = parse_coefficient("poly:1,2", role="a2")
    assert np.allclose(poly.eval_points(PTS), 1 + 2 * PTS[:, 0])
    assert isinstance(parse_coefficient("inv_curvature", role="a2"),
                      InverseCurvature)
    named = parse_coefficient("harmonic_cubic", role="phi")
    assert np.allclose(named.eval_points(PTS),
                       EXACT_SOLUTIONS["harmonic_cubic"].value(PTS))


@pytest.mark.parametrize("bad", [
    "const:abc", "poly:", "poly:1,2,3,4,5,6,7", "poly:1,x", "mystery", "nodal:x.csv",
])
def test_parse_coefficient_rejects(bad):
    with pytest.raises(ValueError, match="a2"):
        parse_coefficient(bad, mesh=None, role="a2")


def test_nodal_coefficient_round_trip(tmp_path):
    mesh = triangulate(square_domain(), 2)
    path = tmp_path / "vals.csv"
    rows = ["node,value"]
    rows += [f"{i},{x:.17g}" for i, (x, _) in enumerate(mesh.nodes)]
    path.write_text("\n".join(rows) + "\n")

    coef = parse_coefficient(f"nodal:{path}", mesh=mesh, role="a2")
    assert np.abs(coef.eval_points(mesh.nodes) - mesh.nodes[:, 0]).max() < 1e-14
    # interpolation inside a triangle reproduces the linear field x
    q = np.array([[0.3, 1.2], [0.7, 1.9]])
    assert np.abs(coef.eval_points(q) - q[:, 0]).max() < 1e-12

    bottom = square_domain().ventcel_curves[0]
    t = np.array([0.1, 0.6, 0.9])
    assert np.abs(coef.eval_curve(bottom, t) - t).max() < 1e-13
    assert np.abs(coef.tangential_deriv(bottom, t) - 1.0).max() < 1e-12


def test_nodal_csv_must_cover_all_nodes(tmp_path):
    mesh = triangulate(square_domain(), 2)
    path = tmp_path / "partial.csv"
    path.write_text("0,1.0\n1,2.0\n")
    with pytest.raises(ValueError):
        parse_coefficient(f"nodal:{path}", mesh=mesh, role="a2")


def _scalar_eval_points(coef, p):
    """Point-by-point triangle search, the reference for eval_points."""
    from scipy.spatial import cKDTree

    mesh = coef.mesh
    tree = cKDTree(mesh.nodes[mesh.triangles].mean(axis=1))
    flat = np.asarray(p, dtype=float).reshape(-1, 2)
    _, cand = tree.query(flat, k=min(12, len(mesh.triangles)))
    out = np.full(len(flat), np.nan)
    tri_nodes = mesh.nodes[mesh.triangles]
    for row, q in enumerate(flat):
        for ti in cand[row]:
            a, b, c = tri_nodes[ti]
            det = (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])
            l1 = ((q[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (q[1] - a[1])) / det
            l2 = ((b[0] - a[0]) * (q[1] - a[1]) - (q[0] - a[0]) * (b[1] - a[1])) / det
            l0 = 1.0 - l1 - l2
            if min(l0, l1, l2) >= -1e-10:
                vi = coef.values[mesh.triangles[ti]]
                out[row] = l0 * vi[0] + l1 * vi[1] + l2 * vi[2]
                break
    return out


@pytest.mark.parametrize("domain, n", [(annulus_domain(), 16),
                                       (square_domain(), 32)])
def test_nodal_eval_points_matches_scalar_search(domain, n):
    mesh = triangulate(domain, n)
    rng = np.random.default_rng(11)
    coef = NodalCoefficient(mesh, rng.standard_normal(len(mesh.nodes)))
    tri = mesh.nodes[mesh.triangles]
    inside = np.einsum("tk,tkd->td", rng.dirichlet(np.ones(3), len(tri)), tri)
    midpoints = 0.5 * (tri + np.roll(tri, -1, axis=1))
    pts = np.concatenate([inside, midpoints.reshape(-1, 2), mesh.nodes])
    pts = pts[rng.permutation(len(pts))]
    assert len(pts) > fields._EVAL_BLOCK

    got = coef.eval_points(pts)
    want = _scalar_eval_points(coef, pts)
    assert not np.any(np.isnan(want))
    assert np.array_equal(got, want)
    assert np.array_equal(coef.eval_points(pts[:12].reshape(3, 4, 2)),
                          want[:12].reshape(3, 4))


def test_nodal_eval_points_rejects_outside_point():
    mesh = triangulate(square_domain(), 4)
    coef = NodalCoefficient(mesh, np.ones(len(mesh.nodes)))
    inside = mesh.nodes[mesh.triangles].mean(axis=1)
    for pts in (np.array([[3.0, 5.0]]), np.vstack([inside, [[3.0, 5.0]]])):
        with pytest.raises(ValueError, match="outside the mesh"):
            coef.eval_points(pts)


def test_nodal_curve_evaluation_keeps_the_shape_of_t():
    mesh = triangulate(annulus_domain(), 4)
    rng = np.random.default_rng(5)
    coef = NodalCoefficient(mesh, rng.uniform(1.0, 2.0, len(mesh.nodes)))
    curve = annulus_domain().ventcel_curves[0]
    t = rng.uniform(curve.t0, curve.t1, 12)
    for method in (coef.eval_curve, coef.tangential_deriv):
        flat = method(curve, t)
        assert np.array_equal(method(curve, t.reshape(4, 3)),
                              flat.reshape(4, 3))
