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

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

# 3-point Gauss-Legendre on [0, 1]
GAUSS3_XI = np.array([0.5 * (1.0 - np.sqrt(0.6)), 0.5, 0.5 * (1.0 + np.sqrt(0.6))])
GAUSS3_W = np.array([5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0])

# P1 basis values of a chord's end nodes a, b at its Gauss points, (2, 3)
_CHORD_BASIS = np.stack([1.0 - GAUSS3_XI, GAUSS3_XI])

# P1 basis values at the three edge midpoints of a triangle
_MID_BASIS = np.array([[0.5, 0.5, 0.0],
                       [0.0, 0.5, 0.5],
                       [0.5, 0.0, 0.5]])

# mcshane_lift: side of the sample cells in units of the mesh size h,
# and nodes bounded per block (the block arrays are block x cells)
_LIFT_CELL = 2.0
_LIFT_BLOCK = 2048


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
        paths = [np.zeros(0, dtype=int)] + [p for _, p, _ in mesh.chains]
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
    """Geometry-resolved P1 space with the Dirichlet set eliminated."""

    def __init__(self, mesh):
        self.mesh = mesh
        n = len(mesh.nodes)

        mask = np.zeros(n, dtype=bool)
        mask[mesh.walls] = True
        self.dirichlet_mask = mask
        self.free = np.flatnonzero(~mask)
        self.ventcel_edges = VentcelChain(mesh)

        # triangle geometry: areas, constant basis gradients, midpoints
        p = mesh.nodes[mesh.triangles]
        self.tri_area = mesh.signed_areas()
        if np.any(self.tri_area <= 0):
            raise ValueError("mesh has nonpositive triangle areas")
        g = np.empty_like(p)
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            g[:, i, 0] = p[:, j, 1] - p[:, k, 1]
            g[:, i, 1] = p[:, k, 0] - p[:, j, 0]
        self.tri_grads = g / (2.0 * self.tri_area)[:, None, None]
        self.tri_midpoints = 0.5 * (p + p[:, [1, 2, 0], :])

    @property
    def n_nodes(self):
        return len(self.mesh.nodes)

    @property
    def n_free(self):
        return len(self.free)


def build_space(mesh) -> FeSpace:
    return FeSpace(mesh)


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
        return self.grad_bound**2 / (2.0 * self.lambda2) - self.lambda0

    def coercivity_constant(self) -> float:
        """Certified lower bound for the (shifted) form on the energy norm."""
        if self.grad_bound == 0.0:
            return min(1.0, self.lambda2)
        return min(1.0, 0.5 * self.lambda2)


def _chain_coefficients(space: FeSpace, a2, a0):
    """a2, d a2/ds and a0 at the chain's Gauss points, each (E, 3)."""
    ch = space.ventcel_edges
    if not len(ch):
        raise ValueError("space has no Ventcel edges")
    return (ch.on_curves(a2.eval_curve), ch.on_curves(a2.tangential_deriv),
            ch.on_curves(a0.eval_curve))


def _bounds(a2q, da2q, a0q, check) -> CoefficientBounds:
    if check:
        # min/max propagate NaN, so test finiteness first to name the key
        for key, what, v in (("a2", "values", a2q),
                             ("a2", "tangential derivatives", da2q),
                             ("a0", "values", a0q)):
            if not np.all(np.isfinite(v)):
                raise ValueError(
                    f"{key}: {what} must be finite on the Ventcel "
                    f"boundary (found nan or inf)")
    bounds = CoefficientBounds(float(a2q.min()), float(a2q.max()),
                               float(np.abs(da2q).max()),
                               float(a0q.min()), float(a0q.max()))
    if check and bounds.lambda2 <= 0:
        raise ValueError(
            f"a2 must be strictly positive on the Ventcel boundary "
            f"(min {bounds.lambda2:g})")
    if check and bounds.lambda0 < -1e-12:
        raise ValueError(
            f"a0 must be nonnegative on the Ventcel boundary "
            f"(min {bounds.lambda0:g})")
    return bounds


def coefficient_bounds(space: FeSpace, a2, a0, check=True) -> CoefficientBounds:
    return _bounds(*_chain_coefficients(space, a2, a0), check)


def dirichlet_boundary_samples(mesh) -> np.ndarray:
    """Points covering the Dirichlet boundary at spacing at most h/4.

    Every Dirichlet node appears among the samples (edge endpoints are
    always included).
    """
    h = mesh.h
    pts = []
    for pa, pb in mesh.nodes[mesh.walls]:
        ell = np.hypot(*(pb - pa))
        m = max(1, int(np.ceil(ell / (0.25 * h))))
        xi = np.linspace(0.0, 1.0, m + 1)[:, None]
        pts.append(pa + xi * (pb - pa))
    if not pts:
        return np.zeros((0, 2))
    return np.concatenate(pts)


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


def mcshane_lift(space: FeSpace, phi, lipschitz_k: float,
                 samples=None) -> np.ndarray:
    """Lipschitz extension of the Dirichlet data to all nodes.

    phi~(p) = min over boundary samples q of [phi(q) + K |p - q|];
    with K at least the Lipschitz constant of the trace this matches
    phi at every Dirichlet node (the nodes are among the samples) and
    extends with the same constant.  Samples are spaced at most h/4
    along each Dirichlet edge; ``samples`` passes in a
    ``dirichlet_boundary_samples(space.mesh)`` result already built.

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

    Raises ValueError on non-finite wall data or a negative or
    non-finite K.
    """
    K = float(lipschitz_k)
    if not (np.isfinite(K) and K >= 0.0):
        raise ValueError(
            f"lipschitz_k: must be finite and nonnegative, got {K!r}")
    K += 0.0                      # a -0.0 would make K * d a -0.0
    mesh = space.mesh
    if samples is None:
        samples = dirichlet_boundary_samples(mesh)
    if len(samples) == 0:
        return np.zeros(space.n_nodes)
    values = np.atleast_1d(phi.eval_points(samples))
    if not np.all(np.isfinite(values)):
        raise ValueError("phi: wall data must be finite (found nan or inf)")

    mx, my, mv, centre, radius, vmin = _sample_cells(
        samples, values, _LIFT_CELL * mesh.h)
    tol = 1e-9 * (np.abs(values).max() + K * mesh.scale())

    nodes = mesh.nodes
    out = np.empty(len(nodes))
    for lo in range(0, len(nodes), _LIFT_BLOCK):
        p = nodes[lo:lo + _LIFT_BLOCK]
        rows = np.arange(len(p))
        # lb only needs to be accurate to well within tol
        d = np.sqrt((p[:, :1] - centre[:, 0])**2 + (p[:, 1:] - centre[:, 1])**2)
        lb = vmin + K * np.maximum(d - radius, 0.0)
        best = lb.argmin(axis=1)
        ub = (mv[best] + K * np.hypot(p[:, :1] - mx[best],
                                      p[:, 1:] - my[best])).min(axis=1)
        keep = lb <= (ub + tol)[:, None]
        keep[rows, best] = True
        node, cell = np.nonzero(keep)
        g = mv[cell] + K * np.hypot(p[node, :1] - mx[cell],
                                    p[node, 1:] - my[cell])
        out[lo:lo + len(p)] = np.minimum.reduceat(
            g.min(axis=1), np.searchsorted(node, rows))
    return out


class FeSystem:
    """Assembled matrices for one coefficient pair on one space."""

    def __init__(self, space, a2, a0, bounds, parts):
        self.space = space
        self.a2 = a2
        self.a0 = a0
        self.bounds = bounds
        self.K_int = parts["K_int"]
        self.S_b = parts["S_b"]
        self.M_b = parts["M_b"]
        self.A = parts["A"]
        self.sigma0 = bounds.sigma0
        free = space.free
        self.matrix = self.A[free][:, free].tocsr()

    @cached_property
    def matrix_shifted(self):
        """Reduced A + sigma0 M_b; the plain matrix when sigma0 <= 0."""
        if not self.sigma0 > 0:
            return self.matrix
        free = self.space.free
        return (self.A + self.sigma0 * self.M_b).tocsr()[free][:, free].tocsr()

    def gram_v0(self):
        """Free-dof Gram matrix of the energy norm |Dv|^2 + |tang v|^2."""
        free = self.space.free
        return (self.K_int + self.S_b)[free][:, free].tocsr()


def assemble_bilinear(space: FeSpace, a2, a0, check=True) -> FeSystem:
    """Assemble the full bilinear form; rows test, columns trial."""
    a2q, da2q, a0q = _chain_coefficients(space, a2, a0)
    bounds = _bounds(a2q, da2q, a0q, check)
    n = space.n_nodes
    tris = space.mesh.triangles
    area = space.tri_area
    grads = space.tri_grads

    rows, cols, k_vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(tris[:, i])
            cols.append(tris[:, j])
            k_vals.append(area * np.einsum("td,td->t",
                                           grads[:, i], grads[:, j]))
    K_int = sp.coo_matrix(
        (np.concatenate(k_vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()

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
    A2_b = block(np.vecdot(ch.wq, a2q)[:, None, None] * di * dj)
    C_b = block(np.vecdot((ch.wq * da2q)[:, None], phi)[:, :, None] * dj)
    A0_b = block(np.vecdot((ch.wq * a0q)[:, None, None], phi2))

    A = (K_int + A2_b + C_b + A0_b).tocsr()
    parts = {"K_int": K_int, "S_b": S_b, "M_b": M_b, "A": A}
    return FeSystem(space, a2, a0, bounds, parts)


@dataclass
class LoadData:
    full: np.ndarray              # linear functional on all nodes
    rhs_free: np.ndarray          # reduced right-hand side after lifting
    lift: np.ndarray              # nodal lifting of the Dirichlet data


def _finite_load(key, vals):
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{key}: load data must be finite (found nan or inf)")
    return vals


def assemble_load(system: FeSystem, f1=None, f2=None, g1=None, g2=None,
                  lift=None) -> LoadData:
    """Assemble L(w) = (f1, w) - (f2, Dw) + (g1, w)_chain - (g2, tang w)_chain.

    f2 is a pair of coefficients (components of a plane vector field).
    The returned reduced right-hand side already subtracts the action
    of the bilinear form on the lifting.
    """
    space = system.space
    n = space.n_nodes
    tris = space.mesh.triangles
    area = space.tri_area
    L = np.zeros(n)

    if f1 is not None:
        vals = _finite_load(
            "f1", np.atleast_2d(f1.eval_points(space.tri_midpoints)))
        w = (area / 3.0)[:, None] * vals        # (M, 3) midpoint weights
        contrib = w @ _MID_BASIS                # (M, 3) per-vertex
        np.add.at(L, tris, contrib)
    if f2 is not None:
        fx = _finite_load(
            "f2x", np.atleast_2d(f2[0].eval_points(space.tri_midpoints)))
        fy = _finite_load(
            "f2y", np.atleast_2d(f2[1].eval_points(space.tri_midpoints)))
        mean_x = fx.mean(axis=1) * area
        mean_y = fy.mean(axis=1) * area
        contrib = -(space.tri_grads[..., 0] * mean_x[:, None]
                    + space.tri_grads[..., 1] * mean_y[:, None])
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

    if lift is None:
        lift = np.zeros(n)
    rhs_free = (L - system.A.dot(lift))[space.free]
    return LoadData(full=L, rhs_free=rhs_free, lift=lift)
