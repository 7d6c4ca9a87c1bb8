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
from functools import cached_property

import numpy as np


@dataclass(eq=False)
class Mesh:
    nodes: np.ndarray             # (N, 2)
    triangles: np.ndarray         # (M, 3) int, counterclockwise
    walls: np.ndarray             # (D, 2) int, Dirichlet edges
    chains: list                  # (curve, node path, parameter path)

    @cached_property
    def h(self) -> float:
        """Longest triangle side; computed once (meshes are never mutated)."""
        p = self.nodes[self.triangles]
        e = p - p[:, [1, 2, 0], :]
        return float(np.hypot(e[..., 0], e[..., 1]).max())

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
    if n < 1:
        raise ValueError("n must be at least 1")
    if spec.kind == "square":
        return _mesh_square(spec, n)
    if spec.kind == "annulus":
        return _mesh_annulus(spec, n)
    if spec.kind == "cable":
        return _mesh_cable(spec, n)
    raise ValueError(f"unknown domain kind {spec.kind!r}")


def node_count(spec, n: int) -> int:
    """Nodes ``triangulate(spec, n)`` makes, computed without meshing."""
    if spec.kind == "annulus":
        return 4 * n * (n + 1)
    if spec.kind in ("square", "cable"):
        return (n + 1) ** 2
    raise ValueError(f"unknown domain kind {spec.kind!r}")


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

    grid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1).T  # [i, j]
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

    nodes = np.empty(((n + 1) * ntheta, 2))
    for k, r in enumerate(radii):
        nodes[k * ntheta:(k + 1) * ntheta, 0] = r * np.cos(theta)
        nodes[k * ntheta:(k + 1) * ntheta, 1] = r * np.sin(theta)

    # ring k walks m = 0 .. ntheta - 1 and closes back on m = 0
    ring = np.append(np.arange(ntheta), 0)
    p00 = np.arange(n)[:, None] * ntheta + ring[:-1]
    p01 = np.arange(n)[:, None] * ntheta + ring[1:]
    tris = np.stack([p00, p00 + ntheta, p01 + ntheta,
                     p00, p01 + ntheta, p01], axis=-1).reshape(-1, 3)

    chain, wall = ring, n * ntheta + ring          # Ventcel on the inner ring
    if spec.params["ventcel_on"] == "outer":
        chain, wall = wall, chain
    return Mesh(nodes, tris, _path_edges(wall),
                [(curve, chain, np.append(theta, curve.t1))])


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
    tops = curve.point(t_cols)                      # exactly on the arc
    px, py = tops[:, 0], tops[:, 1]

    nodes = np.empty(((n + 1) ** 2, 2))
    for j in range(n + 1):
        rows = slice(j * (n + 1), (j + 1) * (n + 1))
        nodes[rows, 0] = px
        nodes[rows, 1] = py * (j / n)
    # top row exactly equals the curve points
    nodes[n * (n + 1):, :] = tops

    grid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1).T  # [i, j]
    tris = _grid_triangles(grid)
    walls = np.concatenate([_path_edges(grid[:, 0]),
                            _path_edges(grid[0], grid[n])])
    return Mesh(nodes, tris, walls, [(curve, grid[:, n], t_cols)])


# ----------------------------------------------------------------------
# validation and quality


def validate(mesh: Mesh) -> list:
    """Return a list of violation strings; empty means the mesh is sound."""
    out = []
    n = len(mesh.nodes)
    tris = mesh.triangles
    if tris.min() < 0 or tris.max() >= n:
        return ["triangle node index out of range"]
    scale = mesh.scale()

    areas = mesh.signed_areas()
    bad = np.flatnonzero(areas <= 1e-14 * scale**2)
    for i in bad[:10]:
        out.append(f"triangle {i} has nonpositive area {areas[i]:.3g}")

    sides = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, counts = np.unique(sides, axis=0, return_counts=True)
    if np.any(counts > 2):
        out.append(f"{np.count_nonzero(counts > 2)} edges shared by more "
                   "than two triangles")
    hull = set(map(tuple, keys[counts == 1].tolist()))

    edges = np.concatenate([mesh.walls]
                           + [_path_edges(p) for _, p, _ in mesh.chains])
    keys, counts = np.unique(np.sort(edges, axis=1), axis=0,
                             return_counts=True)
    if np.any(counts > 1):
        out.append(f"{np.count_nonzero(counts > 1)} boundary edges tagged twice")
    tagged = set(map(tuple, keys.tolist()))
    if hull - tagged:
        out.append(f"{len(hull - tagged)} hull edges lack a boundary tag")
    if tagged - hull:
        out.append(f"{len(tagged - hull)} tagged edges are not hull edges")
    deg = np.bincount(keys.ravel(), minlength=n)
    odd = np.count_nonzero((deg != 0) & (deg != 2))
    if odd:
        out.append(f"{odd} boundary nodes without exactly two boundary edges")

    for curve, path, t in mesh.chains:
        if len(path) != len(t) or len(path) < 2:
            out.append(f"ventcel chain on {curve!r} has {len(path)} nodes "
                       f"and {len(t)} parameters")
            continue
        if not np.all(np.diff(t) > 0):
            out.append(f"ventcel chain on {curve!r} has a parameter "
                       "that does not increase")
        gap = np.hypot(*(mesh.nodes[path] - curve.point(t)).T)
        for i in np.flatnonzero(gap > 1e-12 * scale)[:10]:
            out.append(f"ventcel node {path[i]} off its curve by {gap[i]:.3g}")
        if abs(t[0] - curve.t0) > 1e-12 or abs(t[-1] - curve.t1) > 1e-12:
            out.append(f"ventcel chain on {curve!r} does not cover the curve")
        if curve.closed:
            if path[0] != path[-1]:
                out.append(f"closed ventcel chain on {curve!r} does not wrap")
        else:
            for endpoint in (path[0], path[-1]):
                if endpoint not in mesh.walls:
                    out.append(
                        f"open ventcel chain endpoint {endpoint} "
                        "is not on the Dirichlet boundary")
    return out


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
    lines = ["ventcel-mesh v1"]
    lines.append(f"NODES {len(mesh.nodes)}")
    for i, (x, y) in enumerate(mesh.nodes):
        lines.append(f"{i} {_fmt(x)} {_fmt(y)}")
    lines.append(f"TRIANGLES {len(mesh.triangles)}")
    for a, b, c in mesh.triangles:
        lines.append(f"{a} {b} {c}")
    rows = []
    for curve, p, t in mesh.chains:
        rows += [f"{a} {b} ventcel {curve.token()} {_fmt(ta)} {_fmt(tb)}"
                 for a, b, ta, tb in zip(p[:-1], p[1:], t[:-1], t[1:])]
    rows += [f"{a} {b} dirichlet" for a, b in mesh.walls]
    lines.append(f"BEDGES {len(rows)}")
    _write_text(path, "\n".join(lines + rows) + "\n")
