import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ventcelfem.domain import (InternalError, annulus_domain, cable_domain,
                               square_domain)
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
from ventcelfem.femcore import VentcelChain
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
    "poly:1,,2", "poly:1,",
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
    assert np.array_equal(coef.values, mesh.nodes[:, 0])

    bottom = mesh.chains[0][0]
    t = np.array([0.1, 0.6, 0.9])
    assert np.abs(coef.eval_curve(bottom, t) - t).max() < 1e-13
    assert np.abs(coef.tangential_deriv(bottom, t) - 1.0).max() < 1e-12
    # curves compare by identity: an equal curve of another domain is foreign
    foreign = square_domain().ventcel_curves[0]
    for method in (coef.eval_curve, coef.tangential_deriv):
        with pytest.raises(InternalError, match="curve outside its mesh"):
            method(foreign, t)


def test_nodal_csv_must_cover_all_nodes(tmp_path):
    mesh = triangulate(square_domain(), 2)
    path = tmp_path / "partial.csv"
    path.write_text("0,1.0\n1,2.0\n")
    with pytest.raises(ValueError):
        parse_coefficient(f"nodal:{path}", mesh=mesh, role="a2")


EDGE_DOMAINS = {"cable": cable_domain, "square": square_domain,
                "annulus": annulus_domain}


def random_edges(mesh, rng, size):
    """End nodes and fractions of ``size`` random triangle edges."""
    t = rng.integers(0, len(mesh.triangles), size)
    i = rng.integers(0, 3, size)
    tris = mesh.triangles
    return tris[t, i], tris[t, (i + 1) % 3], rng.uniform(0.0, 1.0, size)


def edge_points(mesh, a, b, xi):
    return mesh.nodes[a] + xi[..., None] * (mesh.nodes[b] - mesh.nodes[a])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(domain=st.sampled_from(sorted(EDGE_DOMAINS)), n=st.integers(2, 16),
       c=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
       seed=st.integers(0, 2**16))
def test_nodal_eval_edges_reproduces_an_affine_field(domain, n, c, seed):
    mesh = triangulate(EDGE_DOMAINS[domain](), n)
    affine = QuadraticField(*c)
    coef = NodalCoefficient(mesh, affine.value(mesh.nodes))
    rng = np.random.default_rng(seed)
    a, b, xi = random_edges(mesh, rng, 64)
    pts = edge_points(mesh, a, b, xi)
    got = coef.eval_edges(mesh, a, b, xi, pts)
    scale = 1.0 + np.abs(coef.values).max()
    assert np.abs(got - affine.value(pts)).max() <= 1e-13 * scale
    # at xi = 0 the edge's first node, exactly
    assert np.array_equal(coef.eval_edges(mesh, a, b, 0.0, mesh.nodes[a]),
                          coef.values[a])
    idx = np.arange(len(mesh.nodes))
    assert np.array_equal(coef.eval_edges(mesh, idx, idx, 0.0, mesh.nodes),
                          coef.values)


ANALYTIC = ["const:2.5", "const:-0", "poly:1,-2,0.5,3,-1,0.25", "poly:7",
            *sorted(EXACT_SOLUTIONS)]


@pytest.mark.parametrize("text", ANALYTIC)
@settings(max_examples=10, derandomize=True, deadline=None)
@given(domain=st.sampled_from(sorted(EDGE_DOMAINS)), n=st.integers(2, 12),
       seed=st.integers(0, 2**16))
def test_default_eval_edges_is_eval_points_bitwise(text, domain, n, seed):
    mesh = triangulate(EDGE_DOMAINS[domain](), n)
    coef = parse_coefficient(text, mesh, role="f1")
    a, b, xi = random_edges(mesh, np.random.default_rng(seed), 36)
    pts = edge_points(mesh, a, b, xi)
    with np.errstate(divide="ignore"):      # log_radial at the origin
        want = coef.eval_points(pts)
        for shape in ((36,), (12, 3)):
            got = coef.eval_edges(mesh, a.reshape(shape), b.reshape(shape),
                                  xi.reshape(shape), pts.reshape(shape + (2,)))
            assert got.shape == shape
            assert np.array_equal(got.ravel().view(np.int64),
                                  want.view(np.int64))


@settings(max_examples=10, derandomize=True, deadline=None)
@given(domain=st.sampled_from(sorted(EDGE_DOMAINS)), n=st.integers(2, 12))
def test_nodal_eval_edges_rejects_another_mesh(domain, n):
    mesh = triangulate(EDGE_DOMAINS[domain](), n)
    coef = NodalCoefficient(mesh, np.ones(len(mesh.nodes)))
    other = triangulate(EDGE_DOMAINS[domain](), n)      # equal, not the same
    a, b, xi = random_edges(other, np.random.default_rng(n), 8)
    with pytest.raises(InternalError, match="mesh other than its own"):
        coef.eval_edges(other, a, b, xi, edge_points(other, a, b, xi))


def reference_nodal_curve(coef, curve, t):
    """eval_curve and tangential_deriv of P1 nodal data, read off a
    VentcelChain of the coefficient's mesh by the same search and clip."""
    ch = VentcelChain(coef.mesh)
    rows, = (rows for c, rows in ch.curves if c is curve)
    tt = np.atleast_1d(t)
    k = np.searchsorted(ch.ta[rows], tt, side="right") - 1
    k = rows.start + np.clip(k, 0, rows.stop - rows.start - 1)
    xi = np.clip((tt - ch.ta[k]) / (ch.tb[k] - ch.ta[k]), 0.0, 1.0)
    value = (1 - xi) * coef.values[ch.a[k]] + xi * coef.values[ch.b[k]]
    deriv = (coef.values[ch.b[k]] - coef.values[ch.a[k]]) / ch.ell[k]
    return value.reshape(np.shape(t)), deriv.reshape(np.shape(t))


NODAL_DOMAINS = {"cable": cable_domain, "square": square_domain,
                 "annulus": annulus_domain,
                 "annulus_inner": lambda: annulus_domain(0.5, 3.0, "inner")}


@pytest.mark.parametrize("domain", sorted(NODAL_DOMAINS))
@pytest.mark.parametrize("n", [2, 5, 16])
def test_nodal_curve_data_equals_a_chain_reference_bitwise(domain, n):
    mesh = triangulate(NODAL_DOMAINS[domain](), n)
    rng = np.random.default_rng(n)
    coef = NodalCoefficient(mesh, rng.uniform(-2.0, 3.0, len(mesh.nodes)))
    ch = VentcelChain(mesh)
    for curve, rows in ch.curves:
        ends = np.array([curve.t0, curve.t1])
        for t in (ch.tq[rows], rng.uniform(curve.t0, curve.t1, (7, 3)), ends,
                  np.array(curve.t0), np.array(curve.t1), ch.ta[rows]):
            value, deriv = reference_nodal_curve(coef, curve, t)
            got_value = coef.eval_curve(curve, t)
            got_deriv = coef.tangential_deriv(curve, t)
            assert np.shape(got_value) == np.shape(got_deriv) == np.shape(t)
            assert np.asarray(got_value).tobytes() == value.tobytes()
            assert np.asarray(got_deriv).tobytes() == deriv.tobytes()


def test_nodal_curve_evaluation_keeps_the_shape_of_t():
    mesh = triangulate(annulus_domain(), 4)
    rng = np.random.default_rng(5)
    coef = NodalCoefficient(mesh, rng.uniform(1.0, 2.0, len(mesh.nodes)))
    (curve, _, _), = mesh.chains
    t = rng.uniform(curve.t0, curve.t1, 12)
    for method in (coef.eval_curve, coef.tangential_deriv):
        flat = method(curve, t)
        assert np.array_equal(method(curve, t.reshape(4, 3)),
                              flat.reshape(4, 3))
