"""Conforming P1 triangulations of the built-in domains.

Meshes are structured: mapped grids for the cable domain (vertical
columns under the arc), polar grids for the annulus (4n angular by n
radial cells), uniform grids for the square.  All triangles are
counterclockwise.  The boundary is kept as arrays: ``walls`` holds the
Dirichlet edges, one (a, b) row each, and ``chains`` one (curve, node
path, parameter path) triple per Ventcel curve, the path running along
the curve in increasing parameter, so its nodes lie exactly on the
curve.  A closed curve's path ends by repeating its first node, at
parameter ``curve.t1``.

Text format, written only (doubles keep 17 significant digits, so they
read back exactly); BEDGES lists the chain edges curve by curve, then
the wall edges:

    ventcel-mesh v1
    NODES <count>
    <index> <x> <y>
    TRIANGLES <count>
    <a> <b> <c>
    BEDGES <count>
    <a> <b> dirichlet
    <a> <b> ventcel <curve-token> <ta> <tb>
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .domain import InputError


@dataclass(eq=False)
class Mesh:
    # node indices are int32, as cli.MAX_NODES = 1,000,000 < 2**31
    nodes: np.ndarray             # (N, 2)
    triangles: np.ndarray         # (M, 3) int32, counterclockwise
    walls: np.ndarray             # (D, 2) int32, Dirichlet edges
    chains: list                  # (curve, node path, parameter path)

    def signed_areas(self):
        p = self.nodes[self.triangles]
        return 0.5 * (
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )

    def scale(self) -> float:
        lo = self.nodes.min(axis=0)
        hi = self.nodes.max(axis=0)
        return float(np.hypot(*(hi - lo)))


# ----------------------------------------------------------------------
# generation


def triangulate(spec, n: int) -> Mesh:
    """Structured mesh of a built-in domain with n subdivisions per side."""
    if spec.kind == "square":
        return _mesh_square(spec, n)
    if spec.kind == "annulus":
        return _mesh_annulus(spec, n)
    return _mesh_cable(spec, n)


def node_count(spec, n: int) -> int:
    """Nodes ``triangulate(spec, n)`` makes, computed without meshing."""
    if spec.kind == "annulus":
        return 4 * n * (n + 1)
    return (n + 1) ** 2


def _grid_triangles(idx):
    """CCW triangle pairs for a logically rectangular node index grid."""
    v00 = idx[:-1, :-1]
    v10 = idx[1:, :-1]
    v11 = idx[1:, 1:]
    v01 = idx[:-1, 1:]
    t1 = np.stack([v00, v10, v11], axis=-1).reshape(-1, 3)
    t2 = np.stack([v00, v11, v01], axis=-1).reshape(-1, 3)
    return np.concatenate([t1, t2])


def _path_edges(*paths):
    """Edges (p[k], p[k + 1]) of equally long node paths, one row per
    edge; for each k the paths' edges follow in the order given."""
    return np.stack([np.column_stack([p[:-1], p[1:]]) for p in paths],
                    axis=1).reshape(-1, 2)


def _mesh_square(spec, n):
    bottom, top = spec.ventcel_curves
    xs = np.linspace(0.0, 1.0, n + 1)
    ys = np.linspace(1.0, 2.0, n + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    grid = np.arange((n + 1) ** 2, dtype=np.int32).reshape(n + 1, n + 1).T  # [i, j]
    tris = _grid_triangles(grid)
    walls = _path_edges(grid[0], grid[n])
    return Mesh(nodes, tris, walls,
                [(bottom, grid[:, 0], xs), (top, grid[:, n], xs)])


def _mesh_annulus(spec, n):
    r0 = spec.params["r_inner"]
    r1 = spec.params["r_outer"]
    curve = spec.ventcel_curves[0]
    ntheta = 4 * n
    theta = 2.0 * np.pi * np.arange(ntheta) / ntheta
    radii = np.linspace(r0, r1, n + 1)

    nodes = np.column_stack([np.outer(radii, np.cos(theta)).ravel(),
                             np.outer(radii, np.sin(theta)).ravel()])

    # ring k walks m = 0 .. ntheta - 1 and closes back on m = 0
    ring = np.append(np.arange(ntheta, dtype=np.int32), np.int32(0))
    p00 = np.arange(n, dtype=np.int32)[:, None] * ntheta + ring[:-1]
    p01 = np.arange(n, dtype=np.int32)[:, None] * ntheta + ring[1:]
    tris = np.stack([p00, p00 + ntheta, p01 + ntheta,
                     p00, p01 + ntheta, p01], axis=-1).reshape(-1, 3)

    chain, wall = ring, n * ntheta + ring          # Ventcel on the inner ring
    if spec.params["ventcel_on"] == "outer":
        chain, wall = wall, chain
    mesh = Mesh(nodes, tris, _path_edges(wall),
                [(curve, chain, np.append(theta, curve.t1))])
    # rounding can flatten the triangles of a ring thin against its radius
    if not np.all(mesh.signed_areas() > 0):
        raise InputError(f"domain: annulus {r0!r}, {r1!r} is too thin to "
                         f"mesh at n = {n}")
    return mesh


def _cable_column_params(curve, n):
    """Parameters t_i with x(t_i) on a uniform x grid (x is increasing)."""
    c = curve.point(np.array([curve.t1]))[0, 0]
    xs = np.linspace(-c, c, n + 1)
    lo = np.full(n + 1, curve.t0)
    hi = np.full(n + 1, curve.t1)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = curve.point(mid)[:, 0] < xs
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    t = 0.5 * (lo + hi)
    for _ in range(3):
        resid = curve.point(t)[:, 0] - xs
        t = np.clip(t - resid / curve.velocity(t)[:, 0], curve.t0, curve.t1)
    t[0], t[-1] = curve.t0, curve.t1
    return t


def _mesh_cable(spec, n):
    curve = spec.ventcel_curves[0]
    t_cols = _cable_column_params(curve, n)
    px, py = curve.point(t_cols).T

    # row j is at heights py * (j / n), so the top row is exactly on the arc
    nodes = np.column_stack([np.tile(px, n + 1),
                             np.outer(np.arange(n + 1) / n, py).ravel()])

    grid = np.arange((n + 1) ** 2, dtype=np.int32).reshape(n + 1, n + 1).T  # [i, j]
    tris = _grid_triangles(grid)
    walls = np.concatenate([_path_edges(grid[:, 0]),
                            _path_edges(grid[0], grid[n])])
    return Mesh(nodes, tris, walls, [(curve, grid[:, n], t_cols)])


# ----------------------------------------------------------------------
# quality


def mesh_quality(mesh: Mesh) -> float:
    """Min over triangles of 2 r_in / R_circ (1 for equilateral)."""
    p = mesh.nodes[mesh.triangles]
    e = p[:, [1, 2, 0], :] - p[:, [2, 0, 1], :]
    lengths = np.hypot(e[..., 0], e[..., 1])
    a, b, c = lengths[:, 0], lengths[:, 1], lengths[:, 2]
    area = np.abs(mesh.signed_areas())
    return float((16.0 * area**2 / ((a + b + c) * a * b * c)).min())


# ----------------------------------------------------------------------
# text I/O


def _fmt(x: float) -> str:
    """17 significant digits, which read back as the same double."""
    return format(float(x), ".17g")


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file and a rename."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_mesh(mesh: Mesh, path: str) -> None:
    rows = []
    for curve, p, t in mesh.chains:
        rows += [f"{a} {b} ventcel {curve.token()} {_fmt(ta)} {_fmt(tb)}\n"
                 for a, b, ta, tb in zip(p[:-1], p[1:], t[:-1], t[1:])]
    rows += [f"{a} {b} dirichlet\n" for a, b in mesh.walls]
    n, m = len(mesh.nodes), len(mesh.triangles)
    nodes = tuple(np.column_stack([np.arange(n), mesh.nodes]).ravel().tolist())
    # "%.17g" % x prints the same digits as _fmt(x) for every float
    _write_text(path, f"ventcel-mesh v1\nNODES {n}\n"
                + "%d %.17g %.17g\n" * n % nodes
                + f"TRIANGLES {m}\n"
                + "%d %d %d\n" * m % tuple(mesh.triangles.ravel().tolist())
                + f"BEDGES {len(rows)}\n" + "".join(rows))
