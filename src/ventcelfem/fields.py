"""Scalar fields on the plane and coefficient fields on boundary curves.

Plane fields expose ``value``, ``grad`` and ``hess`` as vectorized maps
over points with trailing axis 2.  Coefficient fields are the objects
the assembly consumes: they evaluate at interior points and/or along a
parametrized boundary curve, and those used as a2 provide the
tangential derivative along the curve.

The string grammar understood by ``parse_coefficient``:

    const:<v>                          constant
    poly:<c00>,<c10>,<c01>,<c20>,<c11>,<c02>   quadratic polynomial
    inv_curvature                      1 / oriented curvature (boundary only)
    nodal:<csv-path>                   P1 field from per-node values
    harmonic_cubic | affine | log_radial       named exact fields
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .femcore import VentcelChain


# ----------------------------------------------------------------------
# plane fields


class QuadraticField:
    """c00 + c10 x + c01 y + c20 x^2 + c11 xy + c02 y^2."""

    def __init__(self, c00=0.0, c10=0.0, c01=0.0, c20=0.0, c11=0.0, c02=0.0):
        self.c = tuple(float(v) for v in (c00, c10, c01, c20, c11, c02))

    def value(self, p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        c = self.c
        return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

    def grad(self, p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        c = self.c
        return np.stack([c[1] + 2 * c[3] * x + c[4] * y,
                         c[2] + c[4] * x + 2 * c[5] * y], axis=-1)

    def hess(self, p):
        p = np.asarray(p, dtype=float)
        c = self.c
        h = np.empty(p.shape[:-1] + (2, 2))
        h[..., 0, 0] = 2 * c[3]
        h[..., 0, 1] = h[..., 1, 0] = c[4]
        h[..., 1, 1] = 2 * c[5]
        return h


class CubicHarmonic:
    """u = x^3 - 3 x y^2, a harmonic cubic (real part of z^3)."""

    def value(self, p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        return x**3 - 3.0 * x * y * y

    def grad(self, p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        return np.stack([3.0 * (x * x - y * y), -6.0 * x * y], axis=-1)

    def hess(self, p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        h = np.empty(p.shape[:-1] + (2, 2))
        h[..., 0, 0] = 6.0 * x
        h[..., 0, 1] = h[..., 1, 0] = -6.0 * y
        h[..., 1, 1] = -6.0 * x
        return h


class LogRadial:
    """u = log|p| / log 2, harmonic away from the origin; u=0 on |p|=1, u=1 on |p|=2."""

    _L2 = math.log(2.0)

    def value(self, p):
        p = np.asarray(p, dtype=float)
        r2 = p[..., 0] ** 2 + p[..., 1] ** 2
        with np.errstate(divide="ignore"):      # -inf at the origin
            return 0.5 * np.log(r2) / self._L2

    def grad(self, p):
        p = np.asarray(p, dtype=float)
        r2 = (p[..., 0] ** 2 + p[..., 1] ** 2)[..., None]
        return p / (r2 * self._L2)

    def hess(self, p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        r4 = (x * x + y * y) ** 2 * self._L2
        h = np.empty(p.shape[:-1] + (2, 2))
        h[..., 0, 0] = (y * y - x * x) / r4
        h[..., 0, 1] = h[..., 1, 0] = -2.0 * x * y / r4
        h[..., 1, 1] = (x * x - y * y) / r4
        return h


class ProductField:
    """Pointwise product of two plane fields, derivatives by product rule."""

    def __init__(self, f, g):
        self.f, self.g = f, g

    def value(self, p):
        return self.f.value(p) * self.g.value(p)

    def grad(self, p):
        fv = self.f.value(p)[..., None]
        gv = self.g.value(p)[..., None]
        return self.f.grad(p) * gv + self.g.grad(p) * fv

    def hess(self, p):
        fv = self.f.value(p)[..., None, None]
        gv = self.g.value(p)[..., None, None]
        fg = self.f.grad(p)
        gg = self.g.grad(p)
        cross = fg[..., :, None] * gg[..., None, :]
        return (self.f.hess(p) * gv + self.g.hess(p) * fv
                + cross + np.swapaxes(cross, -1, -2))


EXACT_SOLUTIONS = {
    "harmonic_cubic": CubicHarmonic(),
    "affine": QuadraticField(0.0, 1.0, 1.0),
    "log_radial": LogRadial(),
}


# ----------------------------------------------------------------------
# coefficient fields

# points per block in NodalCoefficient.eval_points; bounds its scratch memory
_EVAL_BLOCK = 8192


class Coefficient:
    """Scalar data attached to a problem: interior and/or boundary trace.

    ``eval_points`` evaluates at plane points, ``eval_curve`` along a
    parametrized curve, ``tangential_deriv`` differentiates the trace
    along arc length.  Subclasses override what they support.
    """

    def eval_points(self, p):
        raise ValueError(f"{type(self).__name__} is defined only on boundary curves")

    def eval_curve(self, curve, t):
        return self.eval_points(curve.point(t))

    def tangential_deriv(self, curve, t):
        raise ValueError(
            f"{type(self).__name__} has no tangential derivative")


class FieldCoefficient(Coefficient):
    """Coefficient backed by a plane field with analytic gradient."""

    def __init__(self, field):
        self.field = field

    def eval_points(self, p):
        return self.field.value(np.asarray(p, dtype=float))

    def eval_curve(self, curve, t):
        return self.field.value(curve.point(t))

    def tangential_deriv(self, curve, t):
        d1 = curve.velocity(t)
        sp = np.hypot(d1[..., 0], d1[..., 1])
        g = self.field.grad(curve.point(t))
        return (d1[..., 0] * g[..., 0] + d1[..., 1] * g[..., 1]) / sp


class ConstantCoefficient(FieldCoefficient):
    def __init__(self, value):
        super().__init__(QuadraticField(value))
        self.constant = float(value)

    def eval_points(self, p):
        p = np.asarray(p, dtype=float)
        return np.full(p.shape[:-1], self.constant)

    def eval_curve(self, curve, t):
        return np.full(np.shape(np.asarray(t, dtype=float)), self.constant)

    def tangential_deriv(self, curve, t):
        return np.zeros(np.shape(np.asarray(t, dtype=float)))


class InverseCurvature(Coefficient):
    """1 / (oriented curvature); positive exactly on strictly convex arcs."""

    def eval_curve(self, curve, t):
        return 1.0 / (curve.normal_sign * curve.curvature(t))

    def tangential_deriv(self, curve, t):
        kappa = curve.curvature(t)
        # d/ds (1/(sign k)) = -sign k'(t) / (k^2 |r'|)
        return -curve.normal_sign * curve.curvature_dt(t) / (
            kappa**2 * curve.speed(t))


class NodalCoefficient(Coefficient):
    """P1 field given by one value per mesh node.

    Interior evaluation locates the containing triangle: a KD-tree over
    the triangle centroids proposes the ``min(12, n_triangles)`` nearest
    candidates per point, and the first candidate whose barycentric
    coordinates are all >= -1e-10 interpolates the point.  Points are
    processed in blocks of ``_EVAL_BLOCK``; within a block the candidate
    columns are scanned in the tree's order, and each column tests only
    the points that no earlier column resolved.  Boundary evaluation
    interpolates along the Ventcel chain of the queried curve by
    parameter fraction.
    """

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (len(mesh.nodes),):
            raise ValueError("nodal coefficient needs one value per mesh node")
        self.mesh = mesh
        self.values = values
        self._tree = None
        self._chain = None

    def eval_points(self, p):
        from scipy.spatial import cKDTree

        mesh = self.mesh
        if self._tree is None:
            cent = mesh.nodes[mesh.triangles].mean(axis=1)
            self._tree = cKDTree(cent)
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1, 2)
        k = min(12, len(mesh.triangles))
        out = np.empty(len(flat))
        tri_nodes = mesh.nodes[mesh.triangles]
        for lo in range(0, len(flat), _EVAL_BLOCK):
            block = flat[lo:lo + _EVAL_BLOCK]
            _, cand = self._tree.query(block, k=k)
            cand = cand.reshape(len(block), k)
            todo = np.arange(len(block))
            for col in range(k):
                ti = cand[todo, col]
                qx, qy = block[todo, 0], block[todo, 1]
                (ax, ay), (bx, by), (cx, cy) = tri_nodes[ti].transpose(1, 2, 0)
                det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
                l1 = ((qx - ax) * (cy - ay) - (cx - ax) * (qy - ay)) / det
                l2 = ((bx - ax) * (qy - ay) - (qx - ax) * (by - ay)) / det
                l0 = 1.0 - l1 - l2
                hit = (l0 >= -1e-10) & (l1 >= -1e-10) & (l2 >= -1e-10)
                vi = self.values[mesh.triangles[ti[hit]]]
                out[lo + todo[hit]] = (l0[hit] * vi[:, 0] + l1[hit] * vi[:, 1]
                                       + l2[hit] * vi[:, 2])
                todo = todo[~hit]
                if not len(todo):
                    break
            else:
                raise ValueError("point outside the mesh for nodal coefficient")
        return out.reshape(p.shape[:-1])

    def _edges_at(self, curve, t):
        """The mesh's Ventcel chain and the row of the edge holding each t."""
        if self._chain is None:
            self._chain = VentcelChain(self.mesh)
        ch = self._chain
        rows = next((rows for c, rows in ch.curves if c == curve), None)
        if rows is None:
            raise ValueError("curve has no boundary edges in the mesh")
        k = np.searchsorted(ch.ta[rows], np.atleast_1d(t), side="right") - 1
        return ch, rows.start + np.clip(k, 0, rows.stop - rows.start - 1)

    def eval_curve(self, curve, t):
        t = np.asarray(t, dtype=float)
        ch, k = self._edges_at(curve, t)
        xi = np.clip((np.atleast_1d(t) - ch.ta[k]) / (ch.tb[k] - ch.ta[k]),
                     0.0, 1.0)
        vals = (1 - xi) * self.values[ch.a[k]] + xi * self.values[ch.b[k]]
        return vals.reshape(t.shape) if t.ndim else float(vals[0])

    def tangential_deriv(self, curve, t):
        t = np.asarray(t, dtype=float)
        ch, k = self._edges_at(curve, t)
        d = (self.values[ch.b[k]] - self.values[ch.a[k]]) / ch.ell[k]
        return d.reshape(t.shape) if t.ndim else float(d[0])


class BoundaryFunction(Coefficient):
    """Coefficient from a callable (curve, t) -> value, boundary only."""

    def __init__(self, func):
        self.func = func

    def eval_curve(self, curve, t):
        return np.asarray(self.func(curve, np.asarray(t, dtype=float)), dtype=float)


ZERO = ConstantCoefficient(0.0)


def parse_coefficient(text, mesh=None, role="coefficient"):
    """Parse the coefficient grammar; raises ValueError naming the role."""
    text = text.strip()
    if text.startswith("const:"):
        try:
            return ConstantCoefficient(float(text[6:]))
        except ValueError:
            raise ValueError(f"{role}: bad constant in {text!r}") from None
    if text.startswith("poly:"):
        parts = [p for p in text[5:].split(",") if p.strip() != ""]
        if not 1 <= len(parts) <= 6:
            raise ValueError(f"{role}: poly takes 1..6 coefficients, got {text!r}")
        try:
            coeffs = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"{role}: bad number in {text!r}") from None
        coeffs += [0.0] * (6 - len(coeffs))
        return FieldCoefficient(QuadraticField(*coeffs))
    if text == "inv_curvature":
        return InverseCurvature()
    if text.startswith("nodal:"):
        if mesh is None:
            raise ValueError(f"{role}: nodal coefficient needs a mesh")
        path = text[6:]
        vals = _read_nodal_csv(path, len(mesh.nodes), role)
        return NodalCoefficient(mesh, vals)
    if text in EXACT_SOLUTIONS:
        return FieldCoefficient(EXACT_SOLUTIONS[text])
    raise ValueError(f"{role}: unknown coefficient {text!r}")


def _read_nodal_csv(path, n_nodes, role):
    """One finite value per mesh node from ``index,value`` rows.

    Blank rows and rows whose first cell is ``node`` or ``#`` are
    skipped.  Every fault (unreadable file, short row, bad or non-finite
    number, index outside 0..n_nodes-1 or given twice, missing nodes)
    raises ValueError naming the role, the file and the line.
    """
    where = f"{role}: nodal csv {path}"
    vals = [None] * n_nodes
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or row[0].strip().lower() in ("node", "#"):
                    continue
                try:
                    i, v = int(row[0]), float(row[1])
                except (IndexError, ValueError):
                    fault = f"expected index,value, got {row!r}"
                else:
                    if not 0 <= i < n_nodes:
                        fault = f"node index {i} outside 0..{n_nodes - 1}"
                    elif vals[i] is not None:
                        fault = f"node {i} given twice"
                    elif not math.isfinite(v):
                        fault = f"value must be finite, got {v!r}"
                    else:
                        vals[i] = v
                        continue
                raise ValueError(f"{where}:{reader.line_num}: {fault}")
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{where}: cannot read ({exc})") from None
    missing = vals.count(None)
    if missing:
        raise ValueError(f"{where} does not cover all {n_nodes} nodes "
                         f"({missing} missing)")
    return np.array(vals, dtype=float)
