"""P1 finite elements for the mixed Dirichlet/Ventcel problem.

The conforming space is piecewise linear on triangles; its trace on a
Ventcel chain is one-dimensional P1 in arc length along the chords.
Dirichlet conditions are imposed by node elimination, and the endpoint
nodes of an open Ventcel chain belong to the Dirichlet set, which is
how the trace space vanishing at chain ends is encoded.

The bilinear form assembled here is, for trial v and test w,

    (Dv, Dw)_domain + (a2 tang(v), tang(w))_chain
        + ((d a2/ds) tang(v), w)_chain + (a0 v, w)_chain

with tang the tangential derivative along the chain.  The first-order
term makes the matrix unsymmetric whenever a2 varies along the chain.
A nonnegative shift sigma0 = M^2/(2 lambda2) - lambda0 (M, lambda2,
lambda0 coefficient bounds over the quadrature points) restores a
coercivity certificate; the shifted matrix is built on demand next to
the plain one and never replaces it in the solve path.

Quadrature: 3-point edge-midpoint rule on triangles (exact to degree
2), 3-point Gauss on each boundary chord with coefficients evaluated
on the exact curve at the mapped parameters.  Boundary data needs a
well-defined trace along the chain (smooth fields or nodal P1 data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .domain import InputError, InternalError

# 3-point Gauss-Legendre on [0, 1]
GAUSS3_XI = np.array([0.5 * (1.0 - np.sqrt(0.6)), 0.5, 0.5 * (1.0 + np.sqrt(0.6))])
GAUSS3_W = np.array([5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0])

# P1 basis values of a chord's end nodes a, b at its Gauss points, (2, 3)
_CHORD_BASIS = np.stack([1.0 - GAUSS3_XI, GAUSS3_XI])

# P1 basis values at the three edge midpoints of a triangle
_MID_BASIS = np.array([[0.5, 0.5, 0.0],
                       [0.0, 0.5, 0.5],
                       [0.5, 0.0, 0.5]])

# mcshane_lift: side of the sample cells in units of the mesh size h
_LIFT_CELL = 2.0

# Entries (256 KiB of float64) in each rows x width temporary of
# mcshane_lift; a block holds max(1, BLOCK_FLOATS // width) rows.  The
# lift runs on the solve's worker thread, whose glibc arena keeps freed
# pages resident, so its temporaries must not grow with the mesh.  Its
# max and per-node min do not depend on the blocking.
BLOCK_FLOATS = 1 << 15


class VentcelChain:
    """The Ventcel edges of a mesh as arrays, one row per edge.

    End nodes a, b, parameter interval ta, tb and chord length ell are
    (E,); the Gauss parameters tq and weights wq (scaled by ell) are
    (E, 3).  Rows follow the mesh's chain paths, curve by curve;
    ``curves`` lists (curve, row slice) pairs.
    """

    def __init__(self, mesh):
        self.curves, start = [], 0
        for curve, path, _ in mesh.chains:
            self.curves.append((curve, slice(start, start + len(path) - 1)))
            start += len(path) - 1
        paths = [np.zeros(0, dtype=np.int32)] + [p for _, p, _ in mesh.chains]
        params = [np.zeros(0)] + [t for _, _, t in mesh.chains]
        self.a = np.concatenate([p[:-1] for p in paths])
        self.b = np.concatenate([p[1:] for p in paths])
        self.ta = np.concatenate([t[:-1] for t in params])
        self.tb = np.concatenate([t[1:] for t in params])
        d = mesh.nodes[self.b] - mesh.nodes[self.a]
        self.ell = np.hypot(d[:, 0], d[:, 1])
        self.tq = self.points(GAUSS3_XI)
        self.wq = self.ell[:, None] * GAUSS3_W

    def __len__(self):
        return len(self.a)

    def points(self, xi):
        """Curve parameters of the reference points xi on every edge, (E, q)."""
        return self.ta[:, None] + xi * (self.tb - self.ta)[:, None]

    def on_curves(self, fn, t=None):
        """fn(curve, t) once per curve on its rows of t (E, q), default tq."""
        t = self.tq if t is None else t
        out = np.empty(t.shape)
        for curve, rows in self.curves:
            out[rows] = fn(curve, t[rows])
        return out

    def add_to(self, vec, *blocks):
        """Add (E, 2) blocks of node terms: edge by edge, block by block,
        a before b, so every node sums its terms in a fixed order."""
        idx = np.tile(np.stack([self.a, self.b], axis=1), (1, len(blocks)))
        np.add.at(vec, idx, np.concatenate(blocks, axis=1))


class FeSpace:
    """P1 space with the Dirichlet set eliminated.  It holds node and edge
    data only: ``dirichlet_mask``, ``free``, ``ventcel_edges`` and ``h``."""

    def __init__(self, mesh):
        self.mesh = mesh
        mask = np.zeros(len(mesh.nodes), dtype=bool)
        mask[mesh.walls] = True
        self.dirichlet_mask = mask
        self.free = np.flatnonzero(~mask).astype(np.int32)
        self.ventcel_edges = VentcelChain(mesh)
        if not np.all(mesh.signed_areas() > 0):
            raise InternalError("mesh has nonpositive triangle areas")
        p = mesh.nodes.take(mesh.triangles, axis=0)
        side = p[:, [1, 2, 0]] - p    # h, the mesh size: the longest side
        self.h = float(np.hypot(side[..., 0], side[..., 1]).max())

    @property
    def n_nodes(self):
        return len(self.mesh.nodes)

    @property
    def n_free(self):
        return len(self.free)


def build_space(mesh) -> FeSpace:
    return FeSpace(mesh)


def triangle_geometry(mesh):
    """Areas (T,) and constant P1 basis gradients (T, 3, 2) of the triangles."""
    area = mesh.signed_areas()
    p = mesh.nodes.take(mesh.triangles, axis=0)   # 5x faster than nodes[tris]
    g = np.empty_like(p)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        g[:, i, 0] = p[:, j, 1] - p[:, k, 1]
        g[:, i, 1] = p[:, k, 0] - p[:, j, 0]
    g /= (2.0 * area)[:, None, None]
    return area, g


@dataclass
class CoefficientBounds:
    """Extrema of the boundary coefficients over the quadrature points."""

    lambda2: float                # inf a2
    Lambda2: float                # sup a2
    grad_bound: float             # sup |d a2 / ds|
    lambda0: float                # inf a0
    Lambda0: float                # sup a0

    @property
    def sigma0(self) -> float:
        """M^2 / (2 lambda2) - lambda0; inf or nan where IEEE gives them."""
        try:
            square = self.grad_bound**2   # x**2 and x*x can round apart
        except OverflowError:             # a float power raises past 1e308
            square = math.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.divide(square, 2.0 * self.lambda2)) - self.lambda0

    def coercivity_constant(self) -> float:
        """Certified lower bound for the (shifted) form on the energy norm."""
        if self.grad_bound == 0.0:
            return min(1.0, self.lambda2)
        return min(1.0, 0.5 * self.lambda2)


def _chain_coefficients(space: FeSpace, a2, a0):
    """a2, d a2/ds and a0 at the chain's Gauss points, each (E, 3)."""
    ch = space.ventcel_edges
    # huge data gives inf or nan here, which the callers report
    with np.errstate(over="ignore", invalid="ignore"):
        return (ch.on_curves(a2.eval_curve), ch.on_curves(a2.tangential_deriv),
                ch.on_curves(a0.eval_curve))


def _bounds(a2q, da2q, a0q) -> CoefficientBounds:
    return CoefficientBounds(float(a2q.min()), float(a2q.max()),
                             float(np.abs(da2q).max()),
                             float(a0q.min()), float(a0q.max()))


def _admissible_bounds(a2q, da2q, a0q) -> CoefficientBounds:
    """The bounds; InputError unless a2, a0 are finite, a2 > 0, a0 >= 0."""
    # min/max propagate NaN, so test finiteness first to name the key
    for key, what, v in (("a2", "values", a2q),
                         ("a2", "tangential derivatives", da2q),
                         ("a0", "values", a0q)):
        if not np.all(np.isfinite(v)):
            raise InputError(
                f"{key}: {what} must be finite on the Ventcel "
                f"boundary (found nan or inf)")
    bounds = _bounds(a2q, da2q, a0q)
    if bounds.lambda2 <= 0:
        raise InputError(
            f"a2 must be strictly positive on the Ventcel boundary "
            f"(min {bounds.lambda2:g})")
    if bounds.lambda0 < -1e-12:
        raise InputError(
            f"a0 must be nonnegative on the Ventcel boundary "
            f"(min {bounds.lambda0:g})")
    return bounds


def coefficient_bounds(space: FeSpace, a2, a0) -> CoefficientBounds:
    """Bounds of a2 and a0 as given, admissible or not."""
    return _bounds(*_chain_coefficients(space, a2, a0))


def _dirichlet_boundary_samples(space: FeSpace):
    """Points covering the Dirichlet boundary at spacing at most h/4.

    Returns (points, a, b, xi): point i lies at fraction xi[i] along the
    wall edge (a[i], b[i]).  Every Dirichlet node appears among the
    samples (edge endpoints are always included, at xi 0 and 1 exactly).
    """
    walls = space.mesh.walls
    pa, pb = space.mesh.nodes[walls.T]
    d = pb - pa
    m = np.maximum(1, np.ceil(np.hypot(*d.T) / (0.25 * space.h)).astype(int))
    edge = np.repeat(np.arange(len(m)), m + 1)
    ends = np.cumsum(m + 1)
    # np.linspace(0, 1, m + 1) per edge: k * (1 / m), exactly 1 at the end
    xi = (np.arange(len(edge)) - (ends - m - 1)[edge]) * (1.0 / m[edge])
    xi[ends - 1] = 1.0
    a, b = walls[edge].T
    return pa[edge] + xi[:, None] * d[edge], a, b, xi


def _sample_cells(samples, values, side):
    """Group wall samples into square cells of the given side.

    Returns per-cell member x, y and values, each (cells, m) and padded
    to the largest cell m by repeating the cell's first member, plus
    each cell's centre (2,), radius (largest member distance from the
    centre) and smallest value.
    """
    _, cell_of, counts = np.unique(np.floor(samples / side), axis=0,
                                   return_inverse=True, return_counts=True)
    cell_of = cell_of.ravel()
    order = np.argsort(cell_of, kind="stable")
    starts = np.cumsum(counts) - counts
    rank = np.arange(len(order)) - np.repeat(starts, counts)
    members = np.repeat(order[starts][:, None], counts.max(), axis=1)
    members[cell_of[order], rank] = order

    mx, my, mv = samples[members, 0], samples[members, 1], values[members]
    centre = 0.5 * np.stack([mx.min(axis=1) + mx.max(axis=1),
                             my.min(axis=1) + my.max(axis=1)], axis=1)
    radius = np.hypot(mx - centre[:, :1], my - centre[:, 1:]).max(axis=1)
    return mx, my, mv, centre, radius, mv.min(axis=1)


def _trace_lipschitz(wall, wall_values, pts, values, scale):
    """Largest |phi(p) - phi(q)| / |p - q| over wall nodes p and samples
    q, times 1 + 1e-9, in blocks of at most BLOCK_FLOATS pairs.  Pairs
    closer than 1e-14 * scale count as 0."""
    K = 0.0
    step = max(1, BLOCK_FLOATS // len(pts))
    for lo in range(0, len(wall), step):
        chunk = wall[lo:lo + step]
        d = np.hypot(chunk[:, None, 0] - pts[None, :, 0],
                     chunk[:, None, 1] - pts[None, :, 1])
        q = np.abs(wall_values[lo:lo + step, None] - values[None, :])
        q /= np.maximum(d, 1e-14 * scale)
        q[d <= 1e-14 * scale] = 0.0
        K = max(K, float(q.max()))
        del d, q                  # free this block before building the next
    return K * (1.0 + 1e-9)


def mcshane_lift(space: FeSpace, phi) -> np.ndarray:
    """Lipschitz extension of the Dirichlet data phi to all nodes.

    phi~(p) = min over boundary samples q of [phi(q) + K |p - q|].
    Samples are spaced at most h/4 along each Dirichlet edge.  K is the
    largest difference quotient of phi between a Dirichlet node and a
    sample, times 1 + 1e-9, so phi~ matches phi at every Dirichlet node
    (the nodes are among the samples) and extends with the same
    constant.  Non-finite wall data raises InputError.

    The minimum is found by branch and bound over square cells of side
    ``_LIFT_CELL * h`` grouping the samples.  A cell with centre c,
    radius r and smallest value vmin holds no candidate below
    lb = vmin + K max(|p - c| - r, 0); the exact minimum over the cell
    of smallest lb is an upper bound ub.  Candidates are evaluated with
    the brute-force expression only in cells with lb <= ub + tol, where
    tol = 1e-9 (max|phi| + K scale) dwarfs the rounding of both bounds.
    Those cells hold the minimizing sample, every candidate is computed
    by the same floating-point operations as in a full scan, and a
    minimum does not depend on the order it is taken in, so the result
    equals the full scan bit for bit (no candidate is -0.0, since
    K |p - q| >= +0).
    """
    mesh = space.mesh
    pts, a, b, xi = _dirichlet_boundary_samples(space)
    idx = np.flatnonzero(space.dirichlet_mask)
    wall = mesh.nodes[idx]
    with np.errstate(over="ignore", invalid="ignore"):
        values = phi.eval_edges(mesh, a, b, xi, pts)
        wall_values = phi.eval_edges(mesh, idx, idx, 0.0, wall)
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(wall_values))):
        raise InputError("phi: wall data must be finite (found nan or inf)")

    scale = mesh.scale()
    K = _trace_lipschitz(wall, wall_values, pts, values, scale)
    mx, my, mv, centre, radius, vmin = _sample_cells(
        pts, values, _LIFT_CELL * space.h)
    tol = 1e-9 * (np.abs(values).max() + K * scale)

    out = np.empty(space.n_nodes)
    # a block's (rows, cells) and (rows, members) arrays, and the
    # (pairs, members) arrays of its kept (node, cell) pairs, each hold
    # at most BLOCK_FLOATS entries
    step = max(1, BLOCK_FLOATS // max(mx.shape))
    pair_step = max(1, BLOCK_FLOATS // mx.shape[1])
    for lo in range(0, space.n_nodes, step):
        p = mesh.nodes[lo:lo + step]
        rows = np.arange(len(p))
        # lb only needs to be accurate to well within tol
        d = np.sqrt((p[:, :1] - centre[:, 0])**2 + (p[:, 1:] - centre[:, 1])**2)
        lb = vmin + K * np.maximum(d - radius, 0.0)
        del d
        best = lb.argmin(axis=1)
        ub = (mv[best] + K * np.hypot(p[:, :1] - mx[best],
                                      p[:, 1:] - my[best])).min(axis=1)
        keep = lb <= (ub + tol)[:, None]
        keep[rows, best] = True
        node, cell = np.nonzero(keep)
        del lb, keep              # free this block before building the next
        g = np.empty(len(node))
        for a in range(0, len(node), pair_step):
            pn, pc = node[a:a + pair_step], cell[a:a + pair_step]
            g[a:a + pair_step] = (mv[pc] + K * np.hypot(
                p[pn, :1] - mx[pc], p[pn, 1:] - my[pc])).min(axis=1)
        out[lo:lo + len(p)] = np.minimum.reduceat(
            g, np.searchsorted(node, rows))
    return out


class FeSystem:
    """Assembled matrices for one coefficient pair on one space."""

    def __init__(self, space, bounds, K_int, S_b, M_b, A):
        self.space = space
        self.bounds = bounds
        self.K_int, self.S_b, self.M_b, self.A = K_int, S_b, M_b, A
        free = space.free
        # CSC, splu's format; its matvec adds each row in CSR's column order
        self.matrix = A[free][:, free].tocsc()

    @cached_property
    def matrix_shifted(self):
        """Reduced A + sigma0 M_b; the plain matrix when sigma0 <= 0."""
        sigma0 = self.bounds.sigma0
        if not sigma0 > 0:
            return self.matrix
        free = self.space.free
        return (self.A + sigma0 * self.M_b).tocsr()[free][:, free].tocsr()

    def gram_v0(self):
        """Free-dof Gram matrix of the energy norm |Dv|^2 + |tang v|^2."""
        free = self.space.free
        return (self.K_int + self.S_b)[free][:, free].tocsr()


def assemble_bilinear(space: FeSpace, a2, a0) -> FeSystem:
    """Assemble the full bilinear form; rows test, columns trial."""
    a2q, da2q, a0q = _chain_coefficients(space, a2, a0)
    bounds = _admissible_bounds(a2q, da2q, a0q)
    n = space.n_nodes
    tris = space.mesh.triangles
    area, grads = triangle_geometry(space.mesh)

    # entry (i, j, t) couples test node tris[t, i] with trial tris[t, j];
    # int32 indices are the ones coo_matrix keeps, so it copies none
    rows, cols = np.empty((2, 3, 3, len(tris)), dtype=np.int32)
    k_vals = np.empty(rows.shape)
    for i in range(3):
        for j in range(3):
            rows[i, j] = tris[:, i]
            cols[i, j] = tris[:, j]
            np.multiply(area, np.einsum("td,td->t", grads[:, i], grads[:, j]),
                        out=k_vals[i, j])
    del area, grads               # the COO to CSR conversion sets the peak
    K_int = sp.coo_matrix((k_vals.ravel(), (rows.ravel(), cols.ravel())),
                          shape=(n, n)).tocsr()
    del rows, cols, k_vals        # free them before the chain blocks and A

    # chain blocks (E, 2, 2), local (i, j) = (test, trial) over nodes (a, b);
    # np.vecdot rounds each 3-point sum as a per-edge np.dot does (einsum
    # does not), so the blocks do not depend on how the edges are batched
    ch = space.ventcel_edges
    phi = _CHORD_BASIS
    phi2 = phi[:, None] * phi                         # (2, 2, q)
    dphi = np.array([-1.0, 1.0]) / ch.ell[:, None]    # (E, 2)
    di, dj = dphi[:, :, None], dphi[:, None, :]
    idx = np.stack([ch.a, ch.b], axis=1)
    br = np.repeat(idx, 2, axis=1).ravel()
    bc = np.tile(idx, 2).ravel()

    def block(vals):
        return sp.coo_matrix((vals.ravel(), (br, bc)), shape=(n, n)).tocsr()

    S_b = block(ch.ell[:, None, None] * di * dj)
    M_b = block(np.vecdot(ch.wq[:, None, None], phi2))
    # huge but finite data gives inf or nan here, which the solve reports
    with np.errstate(over="ignore", invalid="ignore"):
        A2_b = block(np.vecdot(ch.wq, a2q)[:, None, None] * di * dj)
        C_b = block(np.vecdot((ch.wq * da2q)[:, None], phi)[:, :, None] * dj)
        A0_b = block(np.vecdot((ch.wq * a0q)[:, None, None], phi2))
        A = (K_int + A2_b + C_b + A0_b).tocsr()
    return FeSystem(space, bounds, K_int, S_b, M_b, A)


def _finite_load(key, vals):
    if not np.all(np.isfinite(vals)):
        raise InputError(f"{key}: load data must be finite (found nan or inf)")
    return vals


def assemble_load(space: FeSpace, f1=None, f2=None, g1=None,
                  g2=None) -> np.ndarray:
    """Load vector of L(w) = (f1, w) - (f2, Dw) + (g1, w)_chain
    - (g2, tang w)_chain, one entry per node.

    f2 is a pair of coefficients (components of a plane vector field).
    """
    tris = space.mesh.triangles
    L = np.zeros(space.n_nodes)
    if f1 is not None or f2 is not None:
        area, grads = (triangle_geometry(space.mesh) if f2 is not None
                       else (space.mesh.signed_areas(), None))
        # mid[:, i] halves the edge (tris[:, i], tris[:, (i+1) % 3])
        # (not take: its intp copy of tris would stay in the worker's arena)
        mid = 0.5 * (space.mesh.nodes[tris]
                     + space.mesh.nodes[tris[:, [1, 2, 0]]])

    def at_midpoints(key, coef):
        return _finite_load(key, coef.eval_edges(
            space.mesh, tris, tris[:, [1, 2, 0]], 0.5, mid))

    with np.errstate(over="ignore", invalid="ignore"):
        if f1 is not None:
            vals = at_midpoints("f1", f1)
            w = (area / 3.0)[:, None] * vals        # (M, 3) midpoint weights
            contrib = w @ _MID_BASIS                # (M, 3) per-vertex
            np.add.at(L, tris, contrib)
        if f2 is not None:
            fx = at_midpoints("f2x", f2[0])
            fy = at_midpoints("f2y", f2[1])
            mean_x = fx.mean(axis=1) * area
            mean_y = fy.mean(axis=1) * area
            contrib = -(grads[..., 0] * mean_x[:, None]
                        + grads[..., 1] * mean_y[:, None])
            np.add.at(L, tris, contrib)
        ch = space.ventcel_edges
        chain = []
        if g1 is not None:
            g1q = _finite_load("g1", ch.on_curves(g1.eval_curve))
            chain.append(np.vecdot((ch.wq * g1q)[:, None], _CHORD_BASIS))
        if g2 is not None:
            g2q = _finite_load("g2", ch.on_curves(g2.eval_curve))
            dphi = np.array([-1.0, 1.0]) / ch.ell[:, None]
            chain.append(-(np.vecdot(ch.wq, g2q)[:, None] * dphi))
        if chain:
            ch.add_to(L, *chain)
    return L
