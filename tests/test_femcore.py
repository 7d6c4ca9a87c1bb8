import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ventcelfem import femcore
from ventcelfem.domain import (InputError, annulus_domain, cable_domain,
                               make_domain, square_domain)
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
    InternalError,
    assemble_bilinear,
    assemble_load,
    build_space,
    coefficient_bounds,
    mcshane_lift,
)
from ventcelfem.geometry import CableArc, Segment
from ventcelfem.mesh import Mesh, triangulate

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
    with pytest.raises(InputError, match="^a2 must be strictly positive"):
        assemble_bilinear(space, ConstantCoefficient(-1.0), ZERO)
    with pytest.raises(InputError, match="^a0 must be nonnegative"):
        assemble_bilinear(space, ConstantCoefficient(1.0),
                          ConstantCoefficient(-1.0))
    b = coefficient_bounds(space, ConstantCoefficient(-1.0), ZERO)
    assert b.lambda2 == -1.0


@pytest.mark.parametrize("bounds, want", [
    ((1.0, 1.0, 1e160, 0.0, 0.0), np.inf),     # the square overflows
    ((0.0, 1.0, 0.0, 0.0, 0.0), np.nan),       # 0 / 0
    ((0.0, 1.0, 1.0, 0.0, 0.0), np.inf),       # 1 / 0
    ((-0.5, 1.0, 1.0, 0.5, 0.5), -1.5),
])
def test_sigma0_of_any_bounds_is_a_float(bounds, want):
    # info prints the bounds of coefficients no check has admitted
    got = CoefficientBounds(*bounds).sigma0
    assert got == want or (np.isnan(want) and np.isnan(got))


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


def test_space_rejects_a_nan_triangle_area():
    mesh = triangulate(square_domain(), 2)
    mesh.nodes[4] = np.nan          # the centre node: its triangles have nan area
    with pytest.raises(InternalError, match="nonpositive triangle areas"):
        build_space(mesh)


def test_dirichlet_samples_cover_walls():
    mesh = triangulate(square_domain(), 4)
    pts, a, b, xi = femcore._dirichlet_boundary_samples(build_space(mesh))
    assert len(pts) >= 2 * 4 * 4            # two walls, >= 4 per edge
    assert np.all((np.abs(pts[:, 0]) < 1e-14) | (np.abs(pts[:, 0] - 1) < 1e-14))
    # each sample sits at its reported fraction of its reported wall edge
    walls = {tuple(e) for e in mesh.walls.tolist()}
    assert {tuple(e) for e in np.stack([a, b], axis=1).tolist()} == walls
    pa, pb = mesh.nodes[a], mesh.nodes[b]
    assert np.array_equal(pts, pa + xi[:, None] * (pb - pa))
    assert np.array_equal(pts[xi == 0.0], pa[xi == 0.0])


def linspace_samples(space):
    """Reference wall sampler: one np.linspace per wall edge."""
    mesh = space.mesh
    pts, fracs, counts = [np.zeros((0, 2))], [np.zeros(0)], []
    for pa, pb in mesh.nodes[mesh.walls]:
        m = max(1, int(np.ceil(np.hypot(*(pb - pa)) / (0.25 * space.h))))
        xi = np.linspace(0.0, 1.0, m + 1)
        pts.append(pa + xi[:, None] * (pb - pa))
        fracs.append(xi)
        counts.append(m + 1)
    a, b = np.repeat(mesh.walls, counts, axis=0).T
    return np.concatenate(pts), a, b, np.concatenate(fracs)


@settings(max_examples=12)
@given(st.sampled_from(["square", "cable", "annulus", "annulus:0.5,3,inner"]),
       st.integers(2, 40))
def test_dirichlet_samples_are_the_per_edge_linspace_bits(spec, n):
    space = build_space(triangulate(make_domain(spec), n))
    got = femcore._dirichlet_boundary_samples(space)
    for g, w in zip(got, linspace_samples(space), strict=True):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


def test_mcshane_lift_node_exact_and_lipschitz():
    space = build_space(triangulate(square_domain(), 4))
    K = one_block_lipschitz(space, AFFINE)
    lift = mcshane_lift(space, AFFINE)
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
    lift = mcshane_lift(space, ZERO)
    assert np.abs(lift).max() == 0.0


def one_block_lipschitz(space, phi):
    """Reference K: every Dirichlet node against every wall sample at once."""
    mesh = space.mesh
    samples = femcore._dirichlet_boundary_samples(space)[0]
    if len(samples) == 0:
        return 0.0
    nodes = mesh.nodes[space.dirichlet_mask]
    d = np.hypot(nodes[:, None, 0] - samples[None, :, 0],
                 nodes[:, None, 1] - samples[None, :, 1])
    floor = 1e-14 * mesh.scale()
    q = (np.abs(phi.eval_points(nodes)[:, None] - phi.eval_points(samples))
         / np.maximum(d, floor))
    q[d <= floor] = 0.0
    return float(q.max()) * (1.0 + 1e-9)


def brute_force_lift(space, phi, K):
    """Reference McShane lift: every node against every wall sample."""
    samples = femcore._dirichlet_boundary_samples(space)[0]
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
        lambda c: FieldCoefficient(QuadraticField(*c))),
    st.floats(-5.0, 5.0).map(ConstantCoefficient))       # K = 0


# BLOCK_FLOATS values: one row per block, a few rows, and the real one
BUDGETS = st.sampled_from([1, 1000, femcore.BLOCK_FLOATS])


@pytest.mark.parametrize("domain", sorted(LIFT_DOMAINS))
@settings(max_examples=30, derandomize=True, deadline=None)
@given(n=st.integers(2, 24), phi=LIFT_PHIS, budget=BUDGETS)
def test_mcshane_lift_matches_full_scan_bitwise(domain, n, phi, budget):
    # one property pins both K and the extension bit for bit
    space = build_space(triangulate(LIFT_DOMAINS[domain](), n))
    with np.errstate(divide="ignore"):       # log_radial at the origin
        walls = phi.eval_points(femcore._dirichlet_boundary_samples(space)[0])
        if not np.all(np.isfinite(walls)):
            with pytest.raises(InputError, match="^phi"):
                mcshane_lift(space, phi)
            return
    with mock.patch.object(femcore, "BLOCK_FLOATS", budget):
        got = mcshane_lift(space, phi)
    want = brute_force_lift(space, phi, one_block_lipschitz(space, phi))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("domain", sorted(LIFT_DOMAINS))
@settings(max_examples=30, derandomize=True, deadline=None)
@given(n=st.integers(2, 24), phi=LIFT_PHIS, budget=BUDGETS)
def test_trace_lipschitz_matches_one_block_bitwise(domain, n, phi, budget):
    # K as mcshane_lift computes it, wall data read the same way
    space = build_space(triangulate(LIFT_DOMAINS[domain](), n))
    mesh = space.mesh
    pts, a, b, xi = femcore._dirichlet_boundary_samples(space)
    idx = np.flatnonzero(space.dirichlet_mask)
    wall = mesh.nodes[idx]
    with np.errstate(divide="ignore"):       # log_radial at the origin
        values = np.atleast_1d(phi.eval_edges(mesh, a, b, xi, pts))
        wall_values = np.atleast_1d(phi.eval_edges(mesh, idx, idx, 0.0, wall))
    assume(np.all(np.isfinite(values)) and np.all(np.isfinite(wall_values)))
    with mock.patch.object(femcore, "BLOCK_FLOATS", budget):
        got = femcore._trace_lipschitz(wall, wall_values, pts, values,
                                       mesh.scale())
    assert got == one_block_lipschitz(space, phi)


@pytest.mark.parametrize("n", [64, 128])
def test_lift_temporaries_do_not_grow_with_the_mesh(n):
    # the lift, its Lipschitz constant included, runs on the solve's
    # worker thread, whose allocator arena keeps freed pages resident;
    # numpy reports its buffers to tracemalloc
    space = build_space(triangulate(cable_domain(), n))
    phi = FieldCoefficient(EXACT_SOLUTIONS["harmonic_cubic"])
    tracemalloc.start()
    try:
        mcshane_lift(space, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_mcshane_lift_rejects_bad_inputs():
    space = build_space(triangulate(square_domain(), 4))
    for v in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="^phi: wall data must be finite"):
            mcshane_lift(space, ConstantCoefficient(v))


def test_bounds_reject_non_finite_coefficients():
    space = build_space(triangulate(square_domain(), 4))
    one = ConstantCoefficient(1.0)
    for v in (np.nan, np.inf, -np.inf):
        bad = ConstantCoefficient(v)
        with pytest.raises(InputError, match="^a2: values"):
            assemble_bilinear(space, bad, ZERO)
        with pytest.raises(InputError, match="^a0: values"):
            assemble_bilinear(space, one, bad)
        coefficient_bounds(space, bad, bad)

    class NanSlope(ConstantCoefficient):
        def tangential_deriv(self, curve, t):
            return np.full(np.shape(t), np.nan)

    with pytest.raises(InputError, match="^a2: tangential derivatives"):
        assemble_bilinear(space, NanSlope(1.0), ZERO)


def test_load_pieces_on_reference_triangle():
    space = build_space(one_triangle_mesh())

    load = assemble_load(space, f1=ConstantCoefficient(1.0))
    assert np.allclose(load, [1 / 6, 1 / 6, 1 / 6], atol=1e-14)

    load = assemble_load(space, f2=(ConstantCoefficient(1.0), ZERO))
    assert np.allclose(load, [0.5, -0.5, 0.0], atol=1e-14)

    load = assemble_load(space, g1=ConstantCoefficient(2.0))
    assert np.allclose(load, [1.0, 1.0, 0.0], atol=1e-14)

    load = assemble_load(space, g2=ConstantCoefficient(1.0))
    assert np.allclose(load, [1.0, -1.0, 0.0], atol=1e-14)


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
    assert system.bounds.sigma0 > 0
    free = space.free
    want = (system.A + system.bounds.sigma0 * system.M_b)[free][:, free]
    assert want.shape == (space.n_free, space.n_free) and space.n_free > 0
    assert np.abs((system.matrix_shifted - want).toarray()).max() < 1e-14
    flat = assemble_bilinear(space, ConstantCoefficient(1.0),
                             ConstantCoefficient(1.0))
    assert not flat.bounds.sigma0 > 0
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
# |x|, |y| <= 2 on every domain, so c0 >= 33 keeps a quadratic with the
# other coefficients in [-2, 2] positive: admissible as a2 and as a0
POSITIVE_POLY = st.tuples(st.floats(33.0, 40.0), st.lists(
    st.floats(-2.0, 2.0), min_size=5, max_size=5)).map(
    lambda c: ("poly", [c[0], *c[1]]))
CHAIN_COEFFICIENTS = st.one_of(
    st.floats(0.1, 5.0).map(lambda v: ("const", v)), POSITIVE_POLY,
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
    system = assemble_bilinear(space, a2, a0)
    load = assemble_load(space, g1=g1, g2=g2)

    blocks, want_load = per_edge_chain(space, a2, a0, g1, g2)
    assert same_csr(system.S_b, blocks["S"])
    assert same_csr(system.M_b, blocks["M"])
    want_A = system.K_int + blocks["A2"] + blocks["C"] + blocks["A0"]
    assert same_csr(system.A, want_A)
    assert same_bits(load, want_load)


def list_built_stiffness(space):
    """Reference K_int: one int64 index list and one value list per
    local (i, j) block, concatenated into a single COO matrix."""
    tris = space.mesh.triangles.astype(np.int64)
    area, grads = femcore.triangle_geometry(space.mesh)
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(tris[:, i])
            cols.append(tris[:, j])
            vals.append(area * np.einsum("td,td->t", grads[:, i], grads[:, j]))
    n = space.n_nodes
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()


def same_bytes(A, B):
    return all(getattr(A, key).dtype == getattr(B, key).dtype
               and getattr(A, key).tobytes() == getattr(B, key).tobytes()
               for key in ("data", "indices", "indptr"))


@pytest.mark.parametrize("domain", sorted(CHAIN_DOMAINS))
@pytest.mark.parametrize("n", [2, 5, 16, 33])
def test_stiffness_and_matrix_match_list_built_reference_bytewise(domain, n):
    # variable a2 brings in the first-order block; no canonicalisation
    # on either side, so the stored arrays themselves must agree
    space = build_space(triangulate(CHAIN_DOMAINS[domain](), n))
    a2 = FieldCoefficient(QuadraticField(3.0, 0.5, 0.2))
    a0 = ConstantCoefficient(0.5)
    system = assemble_bilinear(space, a2, a0)
    K = list_built_stiffness(space)
    blocks = per_edge_chain(space, a2, a0, ZERO, ZERO)[0]
    assert same_bytes(system.K_int, K)
    assert same_bytes(system.A,
                      (K + blocks["A2"] + blocks["C"] + blocks["A0"]).tocsr())
    # the reduced matrix is stored as the CSC that splu factors, so
    # factorize's tocsc() hands it over without a copy
    assert system.matrix.format == "csc"
    assert system.matrix.tocsc() is system.matrix
    free = space.free
    assert same_bytes(system.matrix, system.A[free][:, free].tocsc())


def test_space_and_assembly_peaks_per_triangle():
    # traced peaks on the cable at n = 128 (T = 32,768 triangles): the
    # space peaks at 149 bytes per triangle, the assembly at 297 above
    # it and the two together at 300, counted from the finished mesh; a
    # space holding the triangle areas and gradients of int64 triangles
    # gave 207 and 358, a kept midpoint array and list-built int64 COO
    # arrays 325 and 369 for the first two
    mesh = triangulate(cable_domain(), 128)
    T = len(mesh.triangles)
    tracemalloc.start()
    try:
        space = build_space(mesh)
        held, space_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assemble_bilinear(space, InverseCurvature(), ZERO)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space_peak < 260 * T
    assert peak - held < 330 * T
    assert max(space_peak, peak) < 320 * T


@pytest.mark.parametrize("domain", ["square", "annulus", "cable"])
def test_mesh_and_space_indices_are_int32(domain):
    mesh = triangulate(make_domain(domain), 6)
    assert mesh.triangles.dtype == np.int32
    assert mesh.walls.dtype == np.int32
    assert all(path.dtype == np.int32 for _, path, _ in mesh.chains)
    space = build_space(mesh)
    assert space.free.dtype == np.int32
    assert space.ventcel_edges.a.dtype == np.int32


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
