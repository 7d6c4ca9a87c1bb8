"""Problem bundles, the linear solve, diagnostics, and CSV export.

A problem couples a domain with boundary coefficients (a2, a0), loads
(f1, f2 interior; g1, g2 on the Ventcel chain), Dirichlet data phi with
its Lipschitz constant, and optionally the exact solution it was
manufactured from.  The solve pipeline is

    triangulate -> build space -> assemble -> lift Dirichlet data ->
    reduced solve -> add lifting back

so the discrete solution matches the Dirichlet data exactly at
Dirichlet nodes and is independent (up to conditioning) of the lifting
used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .domain import DomainSpec
from .fields import (EXACT_SOLUTIONS, BoundaryFunction, Coefficient,
                     FieldCoefficient)
from .femcore import (GAUSS3_XI, FeSystem, LoadData, assemble_bilinear,
                      assemble_load, build_space, dirichlet_boundary_samples,
                      mcshane_lift)
from .geometry import frame_derivatives
from .mesh import Mesh, _write_text, triangulate


class SingularSystemError(RuntimeError):
    """The reduced linear system could not be solved reliably."""


@dataclass
class VentcelProblem:
    domain: DomainSpec
    a2: Coefficient
    a0: Coefficient
    f1: Coefficient | None = None
    f2: tuple | None = None
    g1: Coefficient | None = None
    g2: Coefficient | None = None
    phi: Coefficient | None = None
    lipschitz_k: float | None = None
    exact: object | None = None


class _PointFunction(Coefficient):
    """Interior-only coefficient from a vectorized callable on points."""

    def __init__(self, func):
        self.func = func

    def eval_points(self, p):
        return np.asarray(self.func(np.asarray(p, dtype=float)), dtype=float)


def manufactured_problem(domain: DomainSpec, exact, a2, a0) -> VentcelProblem:
    """Problem whose solution is a given plane field.

    Interior load f1 = -Laplacian(exact); the chain load is derived
    from the boundary condition evaluated with the exact field's
    derivatives and the curve frame:

        g1 = u_nu - a2 * (u_tautau + kappa u_nu) + a0 * u

    (all quantities oriented outward).  Dirichlet data is the trace of
    the exact field.
    """
    if isinstance(exact, str):
        try:
            exact = EXACT_SOLUTIONS[exact]
        except KeyError:
            raise ValueError(f"exact: unknown exact solution {exact!r}") from None

    def neg_laplacian(p):
        h = exact.hess(p)
        return -(h[..., 0, 0] + h[..., 1, 1])

    def g1_func(curve, t):
        t = np.asarray(t, dtype=float)
        _, u_tt, u_nu, kappa = frame_derivatives(exact, curve, t)
        u_ss = u_tt + kappa * u_nu
        a2v = np.atleast_1d(a2.eval_curve(curve, t))
        a0v = np.atleast_1d(a0.eval_curve(curve, t))
        return (u_nu - a2v.reshape(np.shape(u_nu)) * u_ss
                + a0v.reshape(np.shape(u_nu)) * exact.value(curve.point(t)))

    return VentcelProblem(
        domain=domain, a2=a2, a0=a0,
        f1=_PointFunction(neg_laplacian),
        g1=BoundaryFunction(g1_func),
        phi=FieldCoefficient(exact),
        exact=exact,
    )


@dataclass
class Solution:
    space: object
    system: FeSystem
    load: LoadData
    values: np.ndarray            # nodal solution including Dirichlet data
    homogeneous: np.ndarray       # part vanishing on the Dirichlet set
    factor: object | None = None  # SuperLU of system.matrix, if kept


def estimate_trace_lipschitz(space, phi, samples=None) -> float:
    """Smallest K making the node-exactness of the lifting certain.

    Computes the max difference quotient of phi between Dirichlet nodes
    and a dense sample of the Dirichlet boundary (the same density the
    lifting uses), with a small safety factor.  ``samples`` passes in a
    ``dirichlet_boundary_samples(space.mesh)`` result already built.
    Raises ValueError on non-finite wall data.
    """
    if samples is None:
        samples = dirichlet_boundary_samples(space.mesh)
    if len(samples) == 0:
        return 0.0
    svals = np.atleast_1d(phi.eval_points(samples))
    nodes = space.mesh.nodes[space.dirichlet_mask]
    nvals = np.atleast_1d(phi.eval_points(nodes))
    if not (np.all(np.isfinite(svals)) and np.all(np.isfinite(nvals))):
        raise ValueError("phi: wall data must be finite (found nan or inf)")
    scale = space.mesh.scale()
    best = 0.0
    for lo in range(0, len(nodes), 512):
        chunk = nodes[lo:lo + 512]
        cv = nvals[lo:lo + 512]
        d = np.hypot(chunk[:, None, 0] - samples[None, :, 0],
                     chunk[:, None, 1] - samples[None, :, 1])
        q = np.abs(cv[:, None] - svals[None, :]) / np.maximum(d, 1e-14 * scale)
        q[d <= 1e-14 * scale] = 0.0
        best = max(best, float(q.max()))
    return best * (1.0 + 1e-9)


def factorize(matrix):
    """SuperLU factor of the reduced matrix (scipy's default ordering)."""
    try:
        return spla.splu(matrix.tocsc())
    except (RuntimeError, ValueError, MemoryError) as exc:
        raise SingularSystemError(f"sparse factorization failed: {exc}") from exc


def solve_linear(matrix, rhs, lu=None) -> np.ndarray:
    """Direct sparse solve of the reduced system.

    ``lu`` reuses a ``factorize(matrix)`` result instead of factoring.
    """
    if lu is None:
        lu = factorize(matrix)
    try:
        x = lu.solve(rhs)
    except (RuntimeError, ValueError, MemoryError) as exc:
        raise SingularSystemError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solver produced non-finite values")
    return x


def solve_ventcel(problem: VentcelProblem, n: int | None = None,
                  mesh: Mesh | None = None, keep_factor: bool = False) -> Solution:
    """Solve ``problem`` on ``mesh`` (or a fresh mesh with subdivision n).

    With ``keep_factor`` the Solution holds the LU factor of the reduced
    matrix, for ``uniqueness_diagnostic`` to reuse; the caller drops it
    (``solution.factor = None``) once done, since it dominates memory.
    """
    if mesh is None:
        if n is None:
            raise ValueError("pass a mesh or a subdivision count n")
        mesh = triangulate(problem.domain, n)
    space = build_space(mesh)
    system = assemble_bilinear(space, problem.a2, problem.a0)

    if problem.phi is not None:
        samples = dirichlet_boundary_samples(mesh)
        k = problem.lipschitz_k
        if k is None:
            k = estimate_trace_lipschitz(space, problem.phi, samples)
        lift = mcshane_lift(space, problem.phi, k, samples)
    else:
        lift = np.zeros(space.n_nodes)

    load = assemble_load(system, f1=problem.f1, f2=problem.f2,
                         g1=problem.g1, g2=problem.g2, lift=lift)
    lu = factorize(system.matrix)
    v_free = solve_linear(system.matrix, load.rhs_free, lu=lu)

    u = lift.copy()
    u[space.free] += v_free
    hom = np.zeros(space.n_nodes)
    hom[space.free] = v_free
    return Solution(space=space, system=system, load=load,
                    values=u, homogeneous=hom,
                    factor=lu if keep_factor else None)


@dataclass
class UniquenessReport:
    n_free: int
    rcond: float
    sigma_min: float
    singular: bool
    iterations: int = 0               # inverse-power steps taken for sigma_min
    last_rel_change: float = float("nan")  # |rho_k - rho_(k-1)| / |rho_k|


def uniqueness_diagnostic(system: FeSystem, seed: int = 0,
                          lu=None) -> UniquenessReport:
    """Conditioning report for the reduced matrix.

    rcond is 1 / (norm1(A) * est norm1(inv A)); sigma_min comes from 20
    steps of inverse power iteration on A^T A, with rho = x^T (A^T A)^-1 x
    the step's estimate of 1 / sigma_min^2; ``iterations`` and
    ``last_rel_change`` (of rho over the last step) report how far it
    converged.  ``singular`` flags
    rcond below 1e-14 or a failed factorization.  ``lu`` reuses a
    ``factorize(system.matrix)`` result instead of factoring again.
    """
    A = system.matrix.tocsc()
    m = A.shape[0]
    norm1 = float(np.max(np.abs(A).sum(axis=0))) if m else 0.0
    if lu is None:
        try:
            lu = spla.splu(A)
        except (RuntimeError, ValueError):
            return UniquenessReport(m, 0.0, 0.0, True)

    op = spla.LinearOperator(
        (m, m), matvec=lambda b: lu.solve(b),
        rmatvec=lambda b: lu.solve(b, trans="T"), dtype=np.float64)
    try:
        inv_norm1 = float(spla.onenormest(op)) if m > 1 else \
            float(np.abs(lu.solve(np.ones(1)))[0])
    except (RuntimeError, ValueError, TypeError):
        return UniquenessReport(m, 0.0, 0.0, True)
    rcond = 1.0 / (norm1 * inv_norm1) if norm1 * inv_norm1 > 0 else 0.0

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(m)
    x /= np.linalg.norm(x)
    rho, change = 0.0, float("nan")
    for it in range(1, 21):
        z = lu.solve(lu.solve(x, trans="T"))
        rho_prev, rho = rho, float(x @ z)
        if it > 1:
            change = abs(rho - rho_prev) / abs(rho) if rho else float("inf")
        nz = np.linalg.norm(z)
        if not np.isfinite(nz) or nz == 0:
            return UniquenessReport(m, rcond, 0.0, True, it, change)
        x = z / nz
    sigma_min = 1.0 / np.sqrt(rho) if rho > 0 else 0.0
    singular = (not np.isfinite(rcond)) or rcond < 1e-14
    return UniquenessReport(m, rcond, float(sigma_min), singular, it, change)


# ----------------------------------------------------------------------
# CSV export


def write_solution_csv(solution: Solution, path: str) -> None:
    """Nodal solution as x,y,u rows."""
    nodes = solution.space.mesh.nodes
    rows = np.column_stack([nodes[:, 0], nodes[:, 1], solution.values]).tolist()
    # "%.17g" % x prints the same digits as mesh._fmt(x) for every float
    row_fmt = "%.17g,%.17g,%.17g\n".__mod__
    _write_text(path, "x,y,u\n" + "".join(map(row_fmt, map(tuple, rows))))


def write_trace_csv(solution: Solution, path: str) -> None:
    """Ventcel-chain trace at the boundary quadrature points.

    Columns: curve_id,t,s,u,u_tau with s the arc length along the
    curve, u the P1 value at the mapped chord point, u_tau the chord
    slope of the trace.  Rows go by curve token, then by parameter.
    """
    ch = solution.space.ventcel_edges
    ua = solution.values[ch.a][:, None]
    ub = solution.values[ch.b][:, None]
    vals = (1 - GAUSS3_XI) * ua + GAUSS3_XI * ub
    slope = np.broadcast_to((ub - ua) / ch.ell[:, None], vals.shape)
    text = ["curve_id,t,s,u,u_tau\n"]
    for curve, rows in sorted(ch.curves, key=lambda c: c[0].token()):
        t = ch.tq[rows]
        cols = [x.ravel() for x in (t, curve.arc_length(t), vals[rows],
                                    slope[rows])]
        row_fmt = (curve.token() + ",%.17g,%.17g,%.17g,%.17g\n").__mod__
        text += map(row_fmt, map(tuple, np.column_stack(cols).tolist()))
    _write_text(path, "".join(text))
