import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ventcelfem.domain import annulus_domain, cable_domain, square_domain
from ventcelfem.fields import (
    EXACT_SOLUTIONS,
    ConstantCoefficient,
    FieldCoefficient,
    InverseCurvature,
    NodalCoefficient,
    QuadraticField,
    ZERO,
)
from ventcelfem.femcore import (
    GAUSS3_W,
    GAUSS3_XI,
    CoefficientBounds,
    assemble_bilinear,
    assemble_load,
    build_space,
    coefficient_bounds,
    dirichlet_boundary_samples,
    mcshane_lift,
)
from ventcelfem.geometry import CableArc, Segment
from ventcelfem.mesh import Mesh, triangulate
from ventcelfem.solver import estimate_trace_lipschitz

AFFINE = FieldCoefficient(QuadraticField(0.0, 1.0, 1.0))


def one_triangle_mesh():
    """Unit right triangle; bottom edge is the Ventcel chain."""
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    bottom = Segment((0.0, 0.0), (1.0, 0.0), normal_sign=-1)
    walls = np.array([[1, 2], [2, 0]])
    return Mesh(nodes, tris, walls,
                [(bottom, np.array([0, 1]), np.array([0.0, 1.0]))])


def test_reference_stiffness_and_mass():
    space = build_space(one_triangle_mesh())
    system = assemble_bilinear(space, ConstantCoefficient(1.0), ZERO)
    K = system.K_int.toarray()
    want_K = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.abs(K - want_K).max() < 1e-14


def test_chain_blocks_single_edge():
    space = build_space(one_triangle_mesh())
    system = assemble_bilinear(space, ConstantCoefficient(2.0), ZERO)
    S = system.S_b.toarray()
    want_S = np.zeros((3, 3))
    want_S[:2, :2] = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.abs(S - want_S).max() < 1e-14
    Mb = system.M_b.toarray()
    want_Mb = np.zeros((3, 3))
    want_Mb[:2, :2] = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    assert np.abs(Mb - want_Mb).max() < 1e-14
    # constant a2 = 2, a0 = 0: A = K + 2 S exactly
    A = system.A.toarray()
    assert np.abs(A - system.K_int.toarray() - 2.0 * want_S).max() < 1e-13


def test_variable_a2_first_order_block():
    space = build_space(one_triangle_mesh())
    a2 = FieldCoefficient(QuadraticField(1.0, 1.0))     # 1 + x on the chain
    system = assemble_bilinear(space, a2, ZERO)
    A = system.A.toarray()
    K = system.K_int.toarray()
    B = A - K
    # tangential block int (1+x) phi_i' phi_j' = 1.5 * S pattern
    # coupling block int (da2/ds) phi_i phi_j' with da2/ds = 1
    want = np.zeros((3, 3))
    want[:2, :2] = 1.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]) \
        + np.array([[-0.5, 0.5], [-0.5, 0.5]])
    assert np.abs(B - want).max() < 1e-13
    skew = A - A.T
    assert np.abs(skew[:2, :2] - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() < 1e-13


def test_bounds_variable_coefficient():
    space = build_space(one_triangle_mesh())
    a2 = FieldCoefficient(QuadraticField(1.0, 1.0))
    b = coefficient_bounds(space, a2, ZERO)
    assert abs(b.lambda2 - (1.0 + GAUSS3_XI[0])) < 1e-14
    assert abs(b.Lambda2 - (1.0 + GAUSS3_XI[2])) < 1e-14
    assert abs(b.grad_bound - 1.0) < 1e-12
    assert b.lambda0 == 0.0 and b.Lambda0 == 0.0
    assert abs(b.sigma0 - 1.0 / (2.0 * b.lambda2)) < 1e-14
    assert abs(b.coercivity_constant() - 0.5 * b.lambda2) < 1e-14


def test_bounds_inverse_curvature_on_cable():
    from ventcelfem.domain import cable_domain

    space = build_space(triangulate(cable_domain(), 16))
    b = coefficient_bounds(space, InverseCurvature(), ZERO)
    kappa_max = 2.0 ** (-2.0 / 3.0)       # curvature peaks at the apex
    assert abs(b.lambda2 - 1.0 / kappa_max) < 0.01
    assert b.Lambda2 > b.lambda2
    assert b.grad_bound > 0.0
    assert b.sigma0 > 0.0


def test_bounds_reject_bad_signs():
    space = build_space(one_triangle_mesh())
    with pytest.raises(ValueError):
        coefficient_bounds(space, ConstantCoefficient(-1.0), ZERO)
    with pytest.raises(ValueError):
        coefficient_bounds(space, ConstantCoefficient(1.0),
                           ConstantCoefficient(-1.0))
    b = coefficient_bounds(space, ConstantCoefficient(-1.0), ZERO, check=False)
    assert b.lambda2 == -1.0


def test_coercivity_constant_cases():
    const = CoefficientBounds(3.0, 3.0, 0.0, 0.0, 0.0)
    assert const.coercivity_constant() == 1.0
    small = CoefficientBounds(0.5, 0.5, 0.0, 0.0, 0.0)
    assert small.coercivity_constant() == 0.5
    varying = CoefficientBounds(3.0, 4.0, 2.0, 0.0, 0.0)
    assert varying.coercivity_constant() == 1.0
    tight = CoefficientBounds(0.5, 4.0, 2.0, 0.0, 0.0)
    assert tight.coercivity_constant() == 0.25


def test_ventcel_dofs_square():
    space = build_space(triangulate(square_domain(), 2))
    ch = space.ventcel_edges
    nodes = np.unique(np.concatenate([ch.a, ch.b]))
    assert np.array_equal(nodes[~space.dirichlet_mask[nodes]], [1, 7])
    assert space.n_free == 3                  # chain interiors + one center
    assert space.n_nodes == 9


def test_dirichlet_samples_cover_walls():
    mesh = triangulate(square_domain(), 4)
    pts = dirichlet_boundary_samples(mesh)
    assert len(pts) >= 2 * 4 * 4            # two walls, >= 4 per edge
    assert np.all((np.abs(pts[:, 0]) < 1e-14) | (np.abs(pts[:, 0] - 1) < 1e-14))


def test_mcshane_lift_node_exact_and_lipschitz():
    space = build_space(triangulate(square_domain(), 4))
    K = estimate_trace_lipschitz(space, AFFINE)
    lift = mcshane_lift(space, AFFINE, K)
    nodes = space.mesh.nodes
    want = AFFINE.eval_points(nodes)
    mask = space.dirichlet_mask
    assert np.abs(lift[mask] - want[mask]).max() < 1e-12
    # the extension keeps the Lipschitz constant
    d = np.hypot(nodes[:, None, 0] - nodes[None, :, 0],
                 nodes[:, None, 1] - nodes[None, :, 1])
    gap = np.abs(lift[:, None] - lift[None, :])
    ok = d > 1e-12
    assert (gap[ok] / d[ok]).max() <= K * (1.0 + 1e-9)


def test_mcshane_lift_zero_data():
    space = build_space(triangulate(square_domain(), 4))
    K = estimate_trace_lipschitz(space, ZERO)
    assert K == 0.0
    lift = mcshane_lift(space, ZERO, K)
    assert np.abs(lift).max() == 0.0


def brute_force_lift(space, phi, K):
    """Reference McShane lift: every node against every wall sample."""
    samples = dirichlet_boundary_samples(space.mesh)
    if len(samples) == 0:
        return np.zeros(space.n_nodes)
    values = np.atleast_1d(phi.eval_points(samples))

    out = np.empty(space.n_nodes)
    nodes = space.mesh.nodes
    K = float(K)
    for lo in range(0, len(nodes), 1024):
        chunk = nodes[lo:lo + 1024]
        d = np.hypot(chunk[:, None, 0] - samples[None, :, 0],
                     chunk[:, None, 1] - samples[None, :, 1])
        out[lo:lo + 1024] = (values[None, :] + K * d).min(axis=1)
    return out


LIFT_DOMAINS = {"cable": cable_domain, "square": square_domain,
                "annulus": annulus_domain}
LIFT_PHIS = st.one_of(
    st.sampled_from(sorted(EXACT_SOLUTIONS)).map(
        lambda name: FieldCoefficient(EXACT_SOLUTIONS[name])),
    st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6).map(
        lambda c: FieldCoefficient(QuadraticField(*c))))


@pytest.mark.parametrize("domain", sorted(LIFT_DOMAINS))
@settings(max_examples=30, derandomize=True, deadline=None)
@given(n=st.integers(2, 24), phi=LIFT_PHIS,
       k_scale=st.sampled_from([1.0, 10.0, 0.0]))
def test_mcshane_lift_matches_full_scan_bitwise(domain, n, phi, k_scale):
    space = build_space(triangulate(LIFT_DOMAINS[domain](), n))
    with np.errstate(divide="ignore"):       # log_radial at the origin
        walls = phi.eval_points(dirichlet_boundary_samples(space.mesh))
        if not np.all(np.isfinite(walls)):
            with pytest.raises(ValueError, match="phi"):
                mcshane_lift(space, phi, 1.0)
            return
    K = k_scale * estimate_trace_lipschitz(space, phi)
    got = mcshane_lift(space, phi, K)
    want = brute_force_lift(space, phi, K)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_mcshane_lift_rejects_bad_inputs():
    space = build_space(triangulate(square_domain(), 4))
    for K in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="lipschitz_k"):
            mcshane_lift(space, AFFINE, K)
    for v in (np.nan, np.inf):
        with pytest.raises(ValueError, match="phi"):
            mcshane_lift(space, ConstantCoefficient(v), 1.0)
        with pytest.raises(ValueError, match="phi"):
            estimate_trace_lipschitz(space, ConstantCoefficient(v))


def test_bounds_reject_non_finite_coefficients():
    space = build_space(triangulate(square_domain(), 4))
    one = ConstantCoefficient(1.0)
    for v in (np.nan, np.inf, -np.inf):
        bad = ConstantCoefficient(v)
        with pytest.raises(ValueError, match="^a2: values"):
            coefficient_bounds(space, bad, ZERO)
        with pytest.raises(ValueError, match="^a0: values"):
            coefficient_bounds(space, one, bad)
        coefficient_bounds(space, bad, bad, check=False)

    class NanSlope(ConstantCoefficient):
        def tangential_deriv(self, curve, t):
            return np.full(np.shape(t), np.nan)

    with pytest.raises(ValueError, match="^a2: tangential derivatives"):
        coefficient_bounds(space, NanSlope(1.0), ZERO)


def test_load_pieces_on_reference_triangle():
    space = build_space(one_triangle_mesh())
    system = assemble_bilinear(space, ConstantCoefficient(1.0), ZERO)

    load = assemble_load(system, f1=ConstantCoefficient(1.0))
    assert np.allclose(load.full, [1 / 6, 1 / 6, 1 / 6], atol=1e-14)

    load = assemble_load(system, f2=(ConstantCoefficient(1.0), ZERO))
    assert np.allclose(load.full, [0.5, -0.5, 0.0], atol=1e-14)

    load = assemble_load(system, g1=ConstantCoefficient(2.0))
    assert np.allclose(load.full, [1.0, 1.0, 0.0], atol=1e-14)

    load = assemble_load(system, g2=ConstantCoefficient(1.0))
    assert np.allclose(load.full, [1.0, -1.0, 0.0], atol=1e-14)


def test_load_subtracts_lift_action():
    mesh = triangulate(square_domain(), 3)
    space = build_space(mesh)
    system = assemble_bilinear(space, ConstantCoefficient(1.0), ZERO)
    lift = np.arange(space.n_nodes, dtype=float)
    load = assemble_load(system, f1=ConstantCoefficient(1.0), lift=lift)
    want = (load.full - system.A.dot(lift))[space.free]
    assert np.allclose(load.rhs_free, want, atol=1e-13)


def test_energy_norm_identity():
    space = build_space(triangulate(square_domain(), 3))
    system = assemble_bilinear(space, ConstantCoefficient(1.0), ZERO)
    G = system.gram_v0()
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = np.zeros(space.n_nodes)
        v[space.free] = rng.standard_normal(space.n_free)
        direct = v @ (system.K_int + system.S_b).dot(v)
        got = v[space.free] @ G.dot(v[space.free])
        assert abs(got - direct) < 1e-10 * max(1.0, direct)


def test_shifted_matrix_bookkeeping():
    space = build_space(triangulate(square_domain(), 3))
    a2 = FieldCoefficient(QuadraticField(1.0, 1.0))
    system = assemble_bilinear(space, a2, ZERO)
    assert system.sigma0 > 0
    free = space.free
    want = (system.A + system.sigma0 * system.M_b)[free][:, free]
    assert want.shape == (space.n_free, space.n_free) and space.n_free > 0
    assert np.abs((system.matrix_shifted - want).toarray()).max() < 1e-14
    flat = assemble_bilinear(space, ConstantCoefficient(1.0),
                             ConstantCoefficient(1.0))
    assert not flat.sigma0 > 0
    assert flat.matrix_shifted is flat.matrix


def per_edge_chain(space, a2, a0, g1, g2):
    """Chain blocks and chain load by one loop over the chain edges.

    Reference for the array assembly: chain path order, np.dot for every
    3-point sum, and one scalar update of the load per node and term.
    """
    mesh, n = space.mesh, space.n_nodes
    phi = np.stack([1.0 - GAUSS3_XI, GAUSS3_XI])
    rows, cols = [], []
    vals = {key: [] for key in ("S", "M", "A2", "C", "A0")}
    load = np.zeros(n)
    edges = [(curve, *e) for curve, path, t in mesh.chains
             for e in zip(path[:-1], path[1:], t[:-1], t[1:])]
    for curve, a, b, ta, tb in edges:
        ell = float(np.hypot(*(mesh.nodes[b] - mesh.nodes[a])))
        tq = ta + GAUSS3_XI * (tb - ta)
        wq = ell * GAUSS3_W
        a2q = np.atleast_1d(a2.eval_curve(curve, tq))
        da2q = np.atleast_1d(a2.tangential_deriv(curve, tq))
        a0q = np.atleast_1d(a0.eval_curve(curve, tq))
        dphi = np.array([-1.0, 1.0]) / ell
        idx = (a, b)
        for i in range(2):
            for j in range(2):
                rows.append(idx[i])
                cols.append(idx[j])
                vals["S"].append(ell * dphi[i] * dphi[j])
                vals["M"].append(float(np.dot(wq, phi[i] * phi[j])))
                vals["A2"].append(float(np.dot(wq, a2q)) * dphi[i] * dphi[j])
                vals["C"].append(float(np.dot(wq * da2q, phi[i]) * dphi[j]))
                vals["A0"].append(float(np.dot(wq * a0q, phi[i] * phi[j])))
        g1q = np.atleast_1d(g1.eval_curve(curve, tq))
        load[a] += float(np.dot(wq * g1q, phi[0]))
        load[b] += float(np.dot(wq * g1q, phi[1]))
        g2q = np.atleast_1d(g2.eval_curve(curve, tq))
        s = float(np.dot(wq, g2q))
        load[a] -= s * dphi[0]
        load[b] -= s * dphi[1]
    blocks = {key: sp.coo_matrix((np.array(v), (rows, cols)),
                                 shape=(n, n)).tocsr()
              for key, v in vals.items()}
    return blocks, load


def same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64),
                                                 y.view(np.int64))


def same_csr(A, B):
    A, B = A.tocsr(), B.tocsr()
    A.sum_duplicates()
    B.sum_duplicates()
    return (np.array_equal(A.indptr, B.indptr)
            and np.array_equal(A.indices, B.indices)
            and same_bits(A.data, B.data))


CHAIN_DOMAINS = {"cable": cable_domain, "square": square_domain,
                 "annulus": annulus_domain,
                 "annulus_inner": lambda: annulus_domain(ventcel_on="inner")}
POLY = st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6).map(
    lambda c: ("poly", c))
CHAIN_COEFFICIENTS = st.one_of(
    st.floats(0.1, 5.0).map(lambda v: ("const", v)), POLY,
    st.integers(0, 2**16).map(lambda seed: ("nodal", seed)),
    st.just(("inv_curvature", None)))


def make_coefficient(kind, arg, mesh):
    if kind == "const":
        return ConstantCoefficient(arg)
    if kind == "poly":
        return FieldCoefficient(QuadraticField(*arg))
    if kind == "nodal":
        rng = np.random.default_rng(arg)
        return NodalCoefficient(mesh, rng.uniform(0.5, 2.0, len(mesh.nodes)))
    return InverseCurvature()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(domain=st.sampled_from(sorted(CHAIN_DOMAINS)), n=st.integers(2, 24),
       a2=CHAIN_COEFFICIENTS, a0=CHAIN_COEFFICIENTS, g1=POLY, g2=POLY)
def test_chain_assembly_matches_per_edge_loop_bitwise(domain, n, a2, a0,
                                                      g1, g2):
    # 1/kappa needs a chain with nonzero curvature
    assume(domain != "square" or "inv_curvature" not in (a2[0], a0[0]))
    mesh = triangulate(CHAIN_DOMAINS[domain](), n)
    space = build_space(mesh)
    a2, a0, g1, g2 = (make_coefficient(*c, mesh) for c in (a2, a0, g1, g2))
    system = assemble_bilinear(space, a2, a0, check=False)
    load = assemble_load(system, g1=g1, g2=g2)

    blocks, want_load = per_edge_chain(space, a2, a0, g1, g2)
    assert same_csr(system.S_b, blocks["S"])
    assert same_csr(system.M_b, blocks["M"])
    want_A = system.K_int + blocks["A2"] + blocks["C"] + blocks["A0"]
    assert same_csr(system.A, want_A)
    assert same_bits(load.full, want_load)


NONNEG_A0 = st.one_of(
    st.floats(0.0, 3.0).map(ConstantCoefficient),
    st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 1.0)).map(
        lambda c: FieldCoefficient(QuadraticField(c[0], 0, 0, c[1]))))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(domain=st.sampled_from(sorted(CHAIN_DOMAINS)), n=st.integers(3, 8),
       a2=st.sampled_from(["const", "poly_y", "linear_x"]),
       c=st.tuples(st.floats(2.0, 3.0), st.floats(-0.5, 0.5),
                   st.floats(-0.1, 0.1)),
       c1=st.floats(0.1, 1.0) | st.floats(-1.0, -0.1), a0=NONNEG_A0)
def test_symmetry_iff_constant_a2(domain, n, a2, c, c1, a0):
    # the matrix is exactly symmetric when a2 is constant along every
    # chain: a constant, or a poly in y on the square, whose chains are
    # horizontal; c0 + c1 x varies along every chain, and n >= 3 leaves
    # two adjacent free nodes on each
    assume(a2 != "poly_y" or domain == "square")
    coef = {"const": ConstantCoefficient(c[0]),
            "poly_y": FieldCoefficient(QuadraticField(c[0], 0, c[1], 0, 0, c[2])),
            "linear_x": FieldCoefficient(QuadraticField(c[0] + 1.0, c1))}[a2]
    space = build_space(triangulate(CHAIN_DOMAINS[domain](), n))
    matrix = assemble_bilinear(space, coef, a0).matrix
    asymmetry = np.abs((matrix - matrix.T).toarray()).max()
    if a2 == "linear_x":
        assert asymmetry > 1e-3 * abs(c1) / n
    else:
        assert asymmetry == 0.0
