from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ventcelfem.domain import (InputError, annulus_domain, cable_domain,
                               make_domain, square_domain)
from ventcelfem.mesh import (_path_edges, mesh_quality, node_count,
                            triangulate, write_mesh)


def validate(mesh):
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
        name = curve.token()
        if len(path) != len(t) or len(path) < 2:
            out.append(f"ventcel chain on {name} has {len(path)} nodes "
                       f"and {len(t)} parameters")
            continue
        if not np.all(np.diff(t) > 0):
            out.append(f"ventcel chain on {name} has a parameter "
                       "that does not increase")
        gap = np.hypot(*(mesh.nodes[path] - curve.point(t)).T)
        for i in np.flatnonzero(gap > 1e-12 * scale)[:10]:
            out.append(f"ventcel node {path[i]} off its curve by {gap[i]:.3g}")
        if abs(t[0] - curve.t0) > 1e-12 or abs(t[-1] - curve.t1) > 1e-12:
            out.append(f"ventcel chain on {name} does not cover the curve")
        if curve.closed:
            if path[0] != path[-1]:
                out.append(f"closed ventcel chain on {name} does not wrap")
        else:
            for endpoint in (path[0], path[-1]):
                if endpoint not in mesh.walls:
                    out.append(
                        f"open ventcel chain endpoint {endpoint} "
                        "is not on the Dirichlet boundary")
    return out


DOMAINS = [cable_domain(), square_domain(), annulus_domain(),
           annulus_domain(1.0, 2.0, "inner")]


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.params.get("ventcel_on", d.kind))
def test_builders_produce_valid_meshes(dom):
    for n in (2, 5):
        mesh = triangulate(dom, n)
        assert validate(mesh) == []
        assert np.all(mesh.signed_areas() > 0)


def test_square_counts():
    mesh = triangulate(square_domain(), 2)
    assert len(mesh.nodes) == 9
    assert len(mesh.triangles) == 8
    assert sum(len(path) - 1 for _, path, _ in mesh.chains) == 4
    assert len(mesh.walls) == 4
    assert abs(mesh.signed_areas().sum() - 1.0) < 1e-14


def test_annulus_counts_and_area():
    dom = annulus_domain()
    target = 3.0 * np.pi
    prev = None
    for n in (4, 8):
        mesh = triangulate(dom, n)
        assert len(mesh.nodes) == (n + 1) * 4 * n
        gap = abs(float(mesh.signed_areas().sum()) - target)
        # inscribed-polygon deficit shrinks like 1/n^2
        assert gap < 4.0 / n**2
        if prev is not None:
            assert gap < 0.3 * prev
        prev = gap


@pytest.mark.parametrize("n", [2, 4, 16])
def test_annulus_thinner_than_rounding_is_an_input_error(n):
    # the two radii are adjacent doubles, so the rings' triangles are flat
    dom = annulus_domain(1.0, 1.0000000000000002, "inner")
    with pytest.raises(InputError, match=f"too thin to mesh at n = {n}$"):
        triangulate(dom, n)


def test_thin_annulus_meshes_while_its_areas_stay_positive():
    mesh = triangulate(annulus_domain(1.0, 1.0 + 1e-12), 16)
    assert np.all(mesh.signed_areas() > 0)


def test_cable_top_row_on_curve():
    dom = cable_domain()
    curve = dom.ventcel_curves[0]
    mesh = triangulate(dom, 8)
    (chain_curve, path, t), = mesh.chains
    assert chain_curve == curve and len(path) == 9
    gap = np.hypot(*(mesh.nodes[path] - curve.point(t)).T)
    assert gap.max() < 1e-12


def _boundary_row(row):
    """One BEDGES row as (a, b, tag[, curve token, ta, tb])."""
    a, b, tag, *rest = row.split()
    if tag == "ventcel":
        token, ta, tb = rest
        return (int(a), int(b), tag, token, float(ta), float(tb))
    assert tag == "dirichlet" and not rest
    return (int(a), int(b), tag)


@pytest.mark.parametrize("text", ["cable", "square", "annulus",
                                  "annulus:1,2,inner"])
@settings(max_examples=15)
@given(n=st.integers(1, 12))
def test_mesh_round_trip(tmp_path_factory, text, n):
    mesh = triangulate(make_domain(text), n)
    path = tmp_path_factory.mktemp("round_trip") / "mesh.txt"
    write_mesh(mesh, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "ventcel-mesh v1"
    sections, pos = {}, 1
    for name in ("NODES", "TRIANGLES", "BEDGES"):
        head, count = lines[pos].split()
        assert head == name
        sections[name] = lines[pos + 1:pos + 1 + int(count)]
        pos += 1 + int(count)
    assert pos == len(lines)

    rows = [row.split() for row in sections["NODES"]]
    assert [int(i) for i, _, _ in rows] == list(range(len(mesh.nodes)))
    nodes = np.array([[float(x), float(y)] for _, x, y in rows])
    assert np.array_equal(nodes, mesh.nodes)
    tris = np.array([row.split() for row in sections["TRIANGLES"]], dtype=int)
    assert np.array_equal(tris.reshape(-1, 3), mesh.triangles)

    want = [(a, b, "dirichlet") for a, b in mesh.walls.tolist()]
    for curve, p, t in mesh.chains:
        want += [(a, b, "ventcel", curve.token(), ta, tb) for a, b, ta, tb
                 in zip(p[:-1].tolist(), p[1:].tolist(),
                        t[:-1].tolist(), t[1:].tolist())]
    assert len(set(want)) == len(want)
    assert Counter(map(_boundary_row, sections["BEDGES"])) == Counter(want)
    assert validate(mesh) == []


def per_line_mesh_text(mesh):
    """The mesh file as the per-line f-string writer formatted it."""
    def fmt(x):
        return format(float(x), ".17g")
    lines = ["ventcel-mesh v1", f"NODES {len(mesh.nodes)}"]
    lines += [f"{i} {fmt(x)} {fmt(y)}" for i, (x, y) in enumerate(mesh.nodes)]
    lines.append(f"TRIANGLES {len(mesh.triangles)}")
    lines += [f"{a} {b} {c}" for a, b, c in mesh.triangles]
    rows = []
    for curve, p, t in mesh.chains:
        rows += [f"{a} {b} ventcel {curve.token()} {fmt(ta)} {fmt(tb)}"
                 for a, b, ta, tb in zip(p[:-1], p[1:], t[:-1], t[1:])]
    rows += [f"{a} {b} dirichlet" for a, b in mesh.walls]
    lines.append(f"BEDGES {len(rows)}")
    return "\n".join(lines + rows) + "\n"


def per_row_nodes(spec, mesh, n):
    """The nodes as the per-row loops of the annulus and cable built them."""
    if spec.kind == "annulus":
        ntheta = 4 * n
        theta = 2.0 * np.pi * np.arange(ntheta) / ntheta
        radii = np.linspace(spec.params["r_inner"], spec.params["r_outer"],
                            n + 1)
        nodes = np.empty(((n + 1) * ntheta, 2))
        for k, r in enumerate(radii):
            nodes[k * ntheta:(k + 1) * ntheta, 0] = r * np.cos(theta)
            nodes[k * ntheta:(k + 1) * ntheta, 1] = r * np.sin(theta)
        return nodes
    (curve, _, t_cols), = mesh.chains
    tops = curve.point(t_cols)
    nodes = np.empty(((n + 1) ** 2, 2))
    for j in range(n + 1):
        rows = slice(j * (n + 1), (j + 1) * (n + 1))
        nodes[rows, 0] = tops[:, 0]
        nodes[rows, 1] = tops[:, 1] * (j / n)
    nodes[n * (n + 1):, :] = tops
    return nodes


@pytest.mark.parametrize("kind", ["cable", "square", "annulus"])
@settings(max_examples=20)
@given(n=st.integers(2, 40))
def test_array_mesh_code_equals_the_per_row_code(tmp_path_factory, kind, n):
    spec = make_domain(kind)
    mesh = triangulate(spec, n)
    if kind != "square":
        assert mesh.nodes.tobytes() == per_row_nodes(spec, mesh, n).tobytes()
    path = tmp_path_factory.mktemp("writer") / "mesh.txt"
    write_mesh(mesh, str(path))
    assert path.read_bytes() == per_line_mesh_text(mesh).encode()


def test_validate_names_each_fault():
    mesh = triangulate(square_domain(), 3)
    (bottom, path, t), top = mesh.chains
    faults = {
        "triangle 0 has nonpositive area":
            replace(mesh, triangles=mesh.triangles[:, [0, 2, 1]]),
        "hull edges lack a boundary tag": replace(mesh, walls=mesh.walls[1:]),
        "boundary edges tagged twice":
            replace(mesh, walls=np.concatenate([mesh.walls, mesh.walls[:1]])),
        "off its curve": replace(mesh, chains=[(bottom, path, 0.5 * t), top]),
        "is not on the Dirichlet boundary":
            replace(mesh, walls=mesh.walls[1:-1]),
    }
    for message, bad in faults.items():
        assert any(message in p for p in validate(bad)), message


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.params.get("ventcel_on", d.kind))
def test_node_count_matches_triangulate(dom):
    for n in range(1, 7):
        assert node_count(dom, n) == len(triangulate(dom, n).nodes)


@pytest.mark.parametrize("dom", DOMAINS[:3], ids=lambda d: d.kind)
def test_mesh_quality_floor(dom):
    for n in (4, 8):
        assert mesh_quality(triangulate(dom, n)) > 0.2
