"""Scalar fields on the plane and coefficient fields on boundary curves.

Plane fields expose ``value``, ``grad`` and ``hess`` as vectorized maps
over points with trailing axis 2.  Coefficient fields are the objects
the assembly consumes: they evaluate at points on the edges of a mesh
and/or along a parametrized boundary curve, and those used as a2
provide the tangential derivative along the curve.  Nodal data is
interpolated along its own mesh's edges, with no point location.

Every method takes float ndarrays, points (..., 2) or curve parameters
of any shape (0-d too), and returns an array of the same leading shape,
with trailing axes for gradients and Hessians.

The string grammar understood by ``parse_coefficient``:

    const:<v>                          constant
    poly:<c00>,<c10>,<c01>,<c20>,<c11>,<c02>   quadratic polynomial
    inv_curvature                      1 / oriented curvature (boundary only)
    nodal:<csv-path>                   P1 field from per-node values,
                                       interpolated along mesh edges
    harmonic_cubic | affine | log_radial       named exact fields
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .domain import InputError, InternalError
from .geometry import tangential_derivative


# ----------------------------------------------------------------------
# plane fields


class QuadraticField:
    """c00 + c10 x + c01 y + c20 x^2 + c11 xy + c02 y^2."""

    def __init__(self, c00=0.0, c10=0.0, c01=0.0, c20=0.0, c11=0.0, c02=0.0):
        self.c = tuple(float(v) for v in (c00, c10, c01, c20, c11, c02))

    def value(self, p):
        x, y = p[..., 0], p[..., 1]
        c = self.c
        return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

    def grad(self, p):
        x, y = p[..., 0], p[..., 1]
        c = self.c
        return np.stack([c[1] + 2 * c[3] * x + c[4] * y,
                         c[2] + c[4] * x + 2 * c[5] * y], axis=-1)

    def hess(self, p):
        c = self.c
        h = np.empty(p.shape[:-1] + (2, 2))
        h[..., 0, 0] = 2 * c[3]
        h[..., 0, 1] = h[..., 1, 0] = c[4]
        h[..., 1, 1] = 2 * c[5]
        return h


class CubicHarmonic:
    """u = x^3 - 3 x y^2, a harmonic cubic (real part of z^3)."""

    def value(self, p):
        x, y = p[..., 0], p[..., 1]
        return x**3 - 3.0 * x * y * y

    def grad(self, p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([3.0 * (x * x - y * y), -6.0 * x * y], axis=-1)

    def hess(self, p):
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
        r2 = p[..., 0] ** 2 + p[..., 1] ** 2
        with np.errstate(divide="ignore"):      # -inf at the origin
            return 0.5 * np.log(r2) / self._L2

    def grad(self, p):
        r2 = (p[..., 0] ** 2 + p[..., 1] ** 2)[..., None]
        return p / (r2 * self._L2)

    def hess(self, p):
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

class Coefficient:
    """Scalar data attached to a problem: interior and/or boundary trace.

    ``eval_points`` evaluates at plane points, ``eval_edges`` at points
    on mesh edges, ``eval_curve`` along a parametrized curve,
    ``tangential_deriv`` differentiates the trace along arc length.
    Subclasses override what they support.
    """

    def eval_points(self, p):
        raise InputError(f"{type(self).__name__} is defined only on boundary curves")

    def eval_edges(self, mesh, a, b, xi, points):
        """Values at ``points``, each at fraction xi along mesh edge (a, b)."""
        return self.eval_points(points)

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
        return self.field.value(p)

    def tangential_deriv(self, curve, t):
        return tangential_derivative(curve.velocity(t),
                                     self.field.grad(curve.point(t)))


class ConstantCoefficient(Coefficient):
    def __init__(self, value):
        self.constant = float(value)

    def eval_points(self, p):
        return np.full(p.shape[:-1], self.constant)

    def eval_curve(self, curve, t):
        return np.full(t.shape, self.constant)

    def tangential_deriv(self, curve, t):
        return np.zeros(t.shape)


class InverseCurvature(Coefficient):
    """1 / (oriented curvature); positive exactly on strictly convex arcs."""

    def eval_curve(self, curve, t):
        with np.errstate(divide="ignore"):      # inf on a straight chain
            return 1.0 / (curve.normal_sign * curve.curvature(t))

    def tangential_deriv(self, curve, t):
        kappa = curve.curvature(t)
        # d/ds (1/(sign k)) = -sign k'(t) / (k^2 |r'|)
        with np.errstate(divide="ignore", invalid="ignore"):
            return -curve.normal_sign * curve.curvature_dt(t) / (
                kappa**2 * curve.speed(t))


class NodalCoefficient(Coefficient):
    """P1 field given by one value per mesh node.

    It is evaluated only where the caller knows the mesh edge, so no
    point is ever located: on an edge (a, b) of its own mesh at fraction
    xi it is (1 - xi) values[a] + xi values[b] (an InternalError on any
    other mesh), and along a boundary curve it interpolates the mesh's
    chain path for that curve by parameter fraction.  It has no
    ``eval_points``.
    """

    def __init__(self, mesh, values):
        self.mesh = mesh
        self.values = np.asarray(values, dtype=float)

    def eval_edges(self, mesh, a, b, xi, points):
        if mesh is not self.mesh:
            raise InternalError(
                "nodal coefficient asked for on a mesh other than its own")
        return (1 - xi) * self.values[a] + xi * self.values[b]

    def _edges_at(self, curve, t):
        """Nodes a, b and parameters ta, tb of the chain edge holding each t."""
        path, tp = next(((p, tp) for c, p, tp in self.mesh.chains if c == curve),
                        (None, None))
        if path is None:
            raise InternalError(
                "nodal coefficient asked for on a curve outside its mesh")
        k = np.clip(np.searchsorted(tp[:-1], t, side="right") - 1,
                    0, len(path) - 2)
        return path[k], path[k + 1], tp[k], tp[k + 1]

    def eval_curve(self, curve, t):
        a, b, ta, tb = self._edges_at(curve, t)
        xi = np.clip((t - ta) / (tb - ta), 0.0, 1.0)
        return (1 - xi) * self.values[a] + xi * self.values[b]

    def tangential_deriv(self, curve, t):
        a, b, _, _ = self._edges_at(curve, t)
        e = self.mesh.nodes[b] - self.mesh.nodes[a]
        return (self.values[b] - self.values[a]) / np.hypot(e[..., 0], e[..., 1])


class BoundaryFunction(Coefficient):
    """Coefficient from a callable (curve, t) -> value, boundary only."""

    def __init__(self, func):
        self.func = func

    def eval_curve(self, curve, t):
        return self.func(curve, t)


ZERO = ConstantCoefficient(0.0)


def parse_coefficient(text, mesh=None, role="coefficient"):
    """Parse the coefficient grammar; raises InputError naming the role."""
    text = text.strip()
    if text.startswith("const:"):
        try:
            return ConstantCoefficient(float(text[6:]))
        except ValueError:
            raise InputError(f"{role}: bad constant in {text!r}") from None
    if text.startswith("poly:"):
        parts = text[5:].split(",")
        if not 1 <= len(parts) <= 6:
            raise InputError(f"{role}: poly takes 1..6 coefficients, got {text!r}")
        try:
            coeffs = [float(p) for p in parts]
        except ValueError:
            raise InputError(f"{role}: bad number in {text!r}") from None
        coeffs += [0.0] * (6 - len(coeffs))
        return FieldCoefficient(QuadraticField(*coeffs))
    if text == "inv_curvature":
        if role in ("f1", "f2x", "f2y", "phi"):     # evaluated off the chain
            raise InputError(
                f"{role}: inv_curvature is defined only on boundary curves")
        return InverseCurvature()
    if text.startswith("nodal:"):
        if mesh is None:
            raise InputError(f"{role}: nodal coefficient needs a mesh")
        path = text[6:]
        vals = _read_nodal_csv(path, len(mesh.nodes), role)
        return NodalCoefficient(mesh, vals)
    if text in EXACT_SOLUTIONS:
        return FieldCoefficient(EXACT_SOLUTIONS[text])
    raise InputError(f"{role}: unknown coefficient {text!r}")


def _read_nodal_csv(path, n_nodes, role):
    """One finite value per mesh node from ``index,value`` rows.

    Blank rows and rows whose first cell is ``node`` or ``#`` are
    skipped.  Every fault (unreadable file, short row, bad or non-finite
    number, index outside 0..n_nodes-1 or given twice, missing nodes)
    raises InputError naming the role, the file and the line.
    """
    where = f"{role}: nodal csv {path}"
    if "\0" in path:             # open() would raise a bare ValueError
        raise InputError(f"{where}: cannot read (embedded null byte)")
    vals = [None] * n_nodes
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
                raise InputError(f"{where}:{reader.line_num}: {fault}")
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{where}: cannot read ({exc})") from None
    missing = vals.count(None)
    if missing:
        raise InputError(f"{where} does not cover all {n_nodes} nodes "
                         f"({missing} missing)")
    return np.array(vals, dtype=float)
