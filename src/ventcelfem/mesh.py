"""Conforming P1 triangulations of the built-in domains.

Meshes are structured: mapped grids for the cable domain (vertical
columns under the arc), polar grids for the annulus (4n angular by n
radial cells), uniform grids for the square.  All triangles are
counterclockwise.  Boundary edges carry a condition tag and, for
Ventcel edges, the owning curve with the parameter interval of the
edge, so nodes on the curved boundary lie exactly on the curve.

Text format (round-trips doubles exactly via 17 significant digits):

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
from dataclasses import dataclass, field

import numpy as np

from .geometry import Curve, curve_from_token


@dataclass
class BoundaryEdge:
    a: int
    b: int
    tag: str                      # "dirichlet" | "ventcel"
    curve: Curve | None = None
    ta: float = 0.0
    tb: float = 0.0


@dataclass(eq=False)
class Mesh:
    nodes: np.ndarray             # (N, 2)
    triangles: np.ndarray         # (M, 3) int, counterclockwise
    bedges: list = field(default_factory=list)

    @property
    def h(self) -> float:
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

    def validate(self) -> list:
        return validate(self)


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


def _mesh_square(spec, n):
    bottom, top = spec.ventcel_curves
    xs = np.linspace(0.0, 1.0, n + 1)
    ys = np.linspace(1.0, 2.0, n + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def idx(i, j):
        return j * (n + 1) + i

    grid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1).T  # [i, j]
    tris = _grid_triangles(grid)

    bedges = []
    for i in range(n):
        bedges.append(BoundaryEdge(idx(i, 0), idx(i + 1, 0), "ventcel",
                                   bottom, xs[i], xs[i + 1]))
        bedges.append(BoundaryEdge(idx(i, n), idx(i + 1, n), "ventcel",
                                   top, xs[i], xs[i + 1]))
    for j in range(n):
        bedges.append(BoundaryEdge(idx(0, j), idx(0, j + 1), "dirichlet"))
        bedges.append(BoundaryEdge(idx(n, j), idx(n, j + 1), "dirichlet"))
    return Mesh(nodes, tris, bedges)


def _mesh_annulus(spec, n):
    r0 = spec.params["r_inner"]
    r1 = spec.params["r_outer"]
    nu_on = spec.params["ventcel_on"]
    curve = spec.ventcel_curves[0]
    ntheta = 4 * n
    theta = 2.0 * np.pi * np.arange(ntheta) / ntheta
    radii = np.linspace(r0, r1, n + 1)

    nodes = np.empty(((n + 1) * ntheta, 2))
    for k, r in enumerate(radii):
        nodes[k * ntheta:(k + 1) * ntheta, 0] = r * np.cos(theta)
        nodes[k * ntheta:(k + 1) * ntheta, 1] = r * np.sin(theta)

    def idx(k, m):
        return k * ntheta + (m % ntheta)

    tris = []
    for k in range(n):
        for m in range(ntheta):
            p00, p10 = idx(k, m), idx(k + 1, m)
            p11, p01 = idx(k + 1, m + 1), idx(k, m + 1)
            tris.append((p00, p10, p11))
            tris.append((p00, p11, p01))
    tris = np.array(tris, dtype=int)

    two_pi = 2.0 * np.pi
    bedges = []
    for ring, k in (("inner", 0), ("outer", n)):
        is_ventcel = ring == nu_on
        for m in range(ntheta):
            ta = theta[m]
            tb = theta[m + 1] if m + 1 < ntheta else two_pi
            if is_ventcel:
                bedges.append(BoundaryEdge(idx(k, m), idx(k, m + 1),
                                           "ventcel", curve, ta, tb))
            else:
                bedges.append(BoundaryEdge(idx(k, m), idx(k, m + 1),
                                           "dirichlet"))
    return Mesh(nodes, tris, bedges)


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

    def idx(i, j):
        return j * (n + 1) + i

    bedges = []
    for i in range(n):
        bedges.append(BoundaryEdge(idx(i, n), idx(i + 1, n), "ventcel",
                                   curve, t_cols[i], t_cols[i + 1]))
        bedges.append(BoundaryEdge(idx(i, 0), idx(i + 1, 0), "dirichlet"))
    for j in range(n):
        bedges.append(BoundaryEdge(idx(0, j), idx(0, j + 1), "dirichlet"))
        bedges.append(BoundaryEdge(idx(n, j), idx(n, j + 1), "dirichlet"))
    return Mesh(nodes, tris, bedges)


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

    tagged = {}
    for e in mesh.bedges:
        key = (e.a, e.b) if e.a < e.b else (e.b, e.a)
        if key in tagged:
            out.append(f"boundary edge {key} tagged twice")
        tagged[key] = e
    if set(tagged) != hull:
        missing = hull - set(tagged)
        extra = set(tagged) - hull
        if missing:
            out.append(f"{len(missing)} hull edges lack a boundary tag")
        if extra:
            out.append(f"{len(extra)} tagged edges are not hull edges")

    deg = {}
    for a, b in tagged:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    odd = [v for v, d in deg.items() if d != 2]
    if odd:
        out.append(f"{len(odd)} boundary nodes without exactly two boundary edges")

    dirichlet_nodes = set()
    for e in mesh.bedges:
        if e.tag == "dirichlet":
            dirichlet_nodes.add(e.a)
            dirichlet_nodes.add(e.b)

    chains = {}
    for e in mesh.bedges:
        if e.tag == "ventcel":
            if e.curve is None:
                out.append("ventcel edge without a curve")
                continue
            chains.setdefault(e.curve.token(), []).append(e)
            if not e.ta < e.tb:
                out.append(f"ventcel edge ({e.a},{e.b}) has ta >= tb")
            for node, tval in ((e.a, e.ta), (e.b, e.tb)):
                gap = np.hypot(*(mesh.nodes[node] - e.curve.point(tval)))
                if gap > 1e-12 * scale:
                    out.append(
                        f"ventcel node {node} off its curve by {gap:.3g}")

    for token, edges in chains.items():
        edges.sort(key=lambda e: e.ta)
        curve = edges[0].curve
        for p, q in zip(edges, edges[1:]):
            if abs(p.tb - q.ta) > 1e-12 or p.b != q.a:
                out.append(f"ventcel chain on {token} is not contiguous")
                break
        span_lo = abs(edges[0].ta - curve.t0) > 1e-12
        span_hi = abs(edges[-1].tb - curve.t1) > 1e-12
        if span_lo or span_hi:
            out.append(f"ventcel chain on {token} does not cover the curve")
        if curve.closed:
            if edges[0].a != edges[-1].b:
                out.append(f"closed ventcel chain on {token} does not wrap")
        else:
            for endpoint in (edges[0].a, edges[-1].b):
                if endpoint not in dirichlet_nodes:
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
    lines.append(f"BEDGES {len(mesh.bedges)}")
    for e in mesh.bedges:
        if e.tag == "ventcel":
            lines.append(f"{e.a} {e.b} ventcel {e.curve.token()} "
                         f"{_fmt(e.ta)} {_fmt(e.tb)}")
        else:
            lines.append(f"{e.a} {e.b} dirichlet")
    _write_text(path, "\n".join(lines) + "\n")


def read_mesh(path: str) -> Mesh:
    """Parse a mesh file; raises ValueError if it is malformed or fails
    ``validate`` (the message lists the violations)."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "ventcel-mesh v1":
        raise ValueError(f"{path}: not a ventcel-mesh v1 file")
    pos = 1

    def section(name):
        nonlocal pos
        head = lines[pos].split()
        if len(head) != 2 or head[0] != name:
            raise ValueError(f"{path}: expected '{name} <count>'")
        pos += 1
        count = int(head[1])
        rows = lines[pos:pos + count]
        if len(rows) != count:
            raise ValueError(f"{path}: truncated {name} section")
        pos += count
        return rows

    node_rows = section("NODES")
    nodes = np.empty((len(node_rows), 2))
    for row in node_rows:
        i, x, y = row.split()
        nodes[int(i)] = (float(x), float(y))

    tri_rows = section("TRIANGLES")
    tris = np.array([[int(v) for v in row.split()] for row in tri_rows],
                    dtype=int).reshape(len(tri_rows), 3)

    curves = {}
    bedges = []
    for row in section("BEDGES"):
        parts = row.split()
        a, b, tag = int(parts[0]), int(parts[1]), parts[2]
        if tag == "dirichlet":
            bedges.append(BoundaryEdge(a, b, tag))
        elif tag == "ventcel":
            token, ta, tb = parts[3], float(parts[4]), float(parts[5])
            if token not in curves:
                curves[token] = curve_from_token(token)
            bedges.append(BoundaryEdge(a, b, tag, curves[token], ta, tb))
        else:
            raise ValueError(f"{path}: unknown boundary tag {tag!r}")
    mesh = Mesh(nodes, tris, bedges)
    problems = validate(mesh)
    if problems:
        raise ValueError(f"{path}: invalid mesh: " + "; ".join(problems))
    return mesh
