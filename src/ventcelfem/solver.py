"""Problem bundles, the linear solve, diagnostics, and CSV export.

A problem couples a domain with boundary coefficients (a2, a0), loads
(f1, f2 interior; g1, g2 on the Ventcel chain), Dirichlet data phi,
and optionally the exact solution it was manufactured from.  The solve
writes u = lift + v, with lift extending the Dirichlet data and v
vanishing on the Dirichlet set, and owns the reduced system for v:

    triangulate -> build space -> assemble A -> load -> wall data ->
        (lift, b = (L - A lift)[free]) || factor A[free, free] ->
        solve for v -> residual -> uniqueness check on the LU -> u = lift + v

so the discrete solution matches the Dirichlet data exactly at
Dirichlet nodes and is independent (up to conditioning) of the lifting
used.  Every solve checks the discrete problem's unique solvability on
its own LU factor (``uniqueness_diagnostic``, a 1-norm rcond estimate)
and refuses a singular system.
"""

from __future__ import annotations

import contextlib
import ctypes
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .domain import DomainSpec, InputError
from .fields import EXACT_SOLUTIONS, BoundaryFunction, Coefficient
from .femcore import (GAUSS3_XI, CoefficientBounds, assemble_bilinear,
                      assemble_load, build_space, mcshane_lift, wall_data)
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
    exact: object | None = None


class _PointFunction(Coefficient):
    """Interior-only coefficient from a vectorized callable on points."""

    def __init__(self, func):
        self.func = func

    def eval_points(self, p):
        return self.func(p)


def manufactured_problem(domain: DomainSpec, exact, a2, a0) -> VentcelProblem:
    """Problem whose solution is a given plane field.

    Interior load f1 = -Laplacian(exact); the chain load is derived
    from the boundary condition evaluated with the exact field's
    derivatives and the curve frame:

        g1 = u_nu - a2 * (u_tautau + kappa u_nu) + a0 * u

    (all quantities oriented outward).  A non-finite a2 or a0 term
    raises InputError naming the coefficient.  Dirichlet data is the
    trace of the exact field; a non-finite value of it raises InputError
    naming ``exact``.
    """
    if isinstance(exact, str):
        exact = EXACT_SOLUTIONS[exact]

    def neg_laplacian(p):
        h = exact.hess(p)
        return -(h[..., 0, 0] + h[..., 1, 1])

    def g1_func(curve, t):
        _, u_tt, u_nu, kappa = frame_derivatives(exact, curve, t)
        u_ss = u_tt + kappa * u_nu
        a2_term = a2.eval_curve(curve, t) * u_ss
        a0_term = a0.eval_curve(curve, t) * exact.value(curve.point(t))
        for key, term in (("a2", a2_term), ("a0", a0_term)):
            if not np.all(np.isfinite(term)):
                raise InputError(f"{key}: the {key} term of the manufactured "
                                 f"chain load must be finite (found nan or inf)")
        return u_nu - a2_term + a0_term

    def exact_on_walls(p):
        values = exact.value(p)
        if not np.all(np.isfinite(values)):
            raise InputError("exact: the exact solution must be finite on "
                             "the walls (found nan or inf)")
        return values

    return VentcelProblem(
        domain=domain, a2=a2, a0=a0,
        f1=_PointFunction(neg_laplacian),
        g1=BoundaryFunction(g1_func),
        phi=_PointFunction(exact_on_walls),
        exact=exact,
    )


@dataclass
class Solution:
    """A solve's nodal values, coefficient bounds, residual and rcond."""
    space: object
    bounds: CoefficientBounds
    values: np.ndarray            # nodal solution including Dirichlet data
    residual: float               # ||A v - b|| / (1 + ||b||), reduced system
    rcond: float                  # uniqueness_diagnostic of the reduced matrix


def _release_heap() -> None:
    """Return the C heap's free pages to the OS, where glibc can."""
    with contextlib.suppress(AttributeError, OSError, TypeError):
        ctypes.CDLL(None).malloc_trim(0)    # numpy imports ctypes anyway


def factorize(matrix):
    """SuperLU factor of ``matrix`` with scipy's default options.

    Every default-option LU in the package goes through here, so the
    ordering is decided in this one place.  A failed factorization
    raises ``SingularSystemError``.
    """
    try:
        return spla.splu(matrix.tocsc())
    except (RuntimeError, ValueError, MemoryError) as exc:
        raise SingularSystemError(f"sparse factorization failed: {exc}") from exc


def solve_linear(lu, rhs) -> np.ndarray:
    """Solve with ``lu``, a ``factorize`` result, for ``rhs``.

    Raises ``SingularSystemError`` when the solve fails or gives
    non-finite values.
    """
    try:
        x = lu.solve(rhs)
    except (RuntimeError, ValueError, MemoryError) as exc:
        raise SingularSystemError(f"sparse solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solver produced non-finite values")
    return x


def solve_ventcel(problem: VentcelProblem, n: int | None = None,
                  mesh: Mesh | None = None) -> Solution:
    """Solve ``problem`` on ``mesh``, or when it is None on a fresh mesh
    with subdivision ``n``; one of the two must be given.

    The calling thread assembles the load L next to the matrix and then
    reads the wall data, so every InputError (a2 and a0, then the loads,
    then phi) comes before any factoring.  lift || factor: the calling
    thread then factors the reduced matrix while one worker thread
    builds the Dirichlet lift and the reduced right-hand side from
    arrays alone; the worker is joined before the solve and never
    outlives the call.

    ``uniqueness_diagnostic`` then runs on the same factor; a system
    whose rcond is not at least 1e-14 raises SingularSystemError.  Of
    the assembly only the reduced matrix and the bounds live through the
    factor's fill peak; the factor is dropped on return.
    """
    if mesh is None:
        mesh = triangulate(problem.domain, n)
    space = build_space(mesh)
    system = assemble_bilinear(space, problem.a2, problem.a0)
    load = assemble_load(space, f1=problem.f1, f2=problem.f2,
                         g1=problem.g1, g2=problem.g2)
    data = None if problem.phi is None else wall_data(space, problem.phi)
    matrix, bounds, held = system.matrix, system.bounds, [(system.A, load)]
    del system, load              # K_int, S_b and M_b go; held owns A and L
    _release_heap()

    def lift_and_rhs():
        lift = (np.zeros(space.n_nodes) if data is None
                else mcshane_lift(space, data))
        A, L = held.pop()
        rhs = (L - A.dot(lift))[space.free]
        del A, L                  # neither the load nor A lives on
        _release_heap()
        return lift, rhs

    # SuperLU releases the GIL while it factors, so the lift runs
    # meanwhile.  Its large blocks are mmapped and reuse no freed heap
    # page, so both releases above hand the freed pages back to the OS
    # before the fill peaks.  The lift overlaps that peak, so it keeps to
    # femcore's block budget.  Leaving the block joins the worker.
    with ThreadPoolExecutor(1) as pool:
        pending = pool.submit(lift_and_rhs)
        lu = factorize(matrix)
        lift, rhs = pending.result()
    v = solve_linear(lu, rhs)

    r = matrix.dot(v) - rhs
    # ||r|| / (1 + ||rhs||) with r and rhs scaled down by a power of two,
    # which rounds the same but keeps the squares in the norms finite
    _, e = np.frexp(max(np.abs(r).max(initial=0.0),
                        np.abs(rhs).max(initial=0.0)))
    s = np.ldexp(1.0, -max(int(e), 0))
    residual = float(np.linalg.norm(r * s) / (s + np.linalg.norm(rhs * s)))

    rcond = uniqueness_diagnostic(matrix, lu)
    if not rcond >= 1e-14:
        raise SingularSystemError(
            "reduced system is singular to working precision "
            f"(rcond = {rcond:.3g})")
    lift[space.free] += v          # u = lift + v, v zero on the walls
    return Solution(space=space, bounds=bounds, values=lift,
                    residual=residual, rcond=rcond)


def uniqueness_diagnostic(matrix, lu) -> float:
    """rcond of the reduced matrix ``matrix``: 1 / (norm1(A) * est
    norm1(inv A)), with scipy's ``onenormest`` on the solves of ``lu``, a
    ``factorize(matrix)`` result.  A failed estimate gives 0.0.
    """
    m = matrix.shape[0]
    norm1 = float(np.max(np.abs(matrix).sum(axis=0)))
    op = spla.LinearOperator(
        (m, m), matvec=lambda b: lu.solve(b),
        rmatvec=lambda b: lu.solve(b, trans="T"), dtype=np.float64)
    try:
        inv_norm1 = float(spla.onenormest(op))
    except (RuntimeError, ValueError, TypeError):
        return 0.0
    return 1.0 / (norm1 * inv_norm1) if norm1 * inv_norm1 > 0 else 0.0


# ----------------------------------------------------------------------
# CSV export


def write_solution_csv(solution: Solution, path: str) -> None:
    """Nodal solution as x,y,u rows."""
    nodes = solution.space.mesh.nodes
    cells = tuple(np.column_stack([nodes, solution.values]).ravel().tolist())
    # "%.17g" % x prints the same digits as mesh._fmt(x) for every float
    _write_text(path, "x,y,u\n" + "%.17g,%.17g,%.17g\n" * len(nodes) % cells)


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
        row_fmt = curve.token().replace("%", "%%") + ",%.17g,%.17g,%.17g,%.17g\n"
        cells = tuple(np.column_stack(cols).ravel().tolist())
        text.append(row_fmt * t.size % cells)
    _write_text(path, "".join(text))
