from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ventcelfem.domain import annulus_domain, cable_domain, make_domain, square_domain
from ventcelfem.mesh import (mesh_quality, node_count, triangulate, validate,
                            write_mesh)

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


def test_cable_top_row_on_curve():
    dom = cable_domain()
    curve = dom.ventcel_curves[0]
    mesh = triangulate(dom, 8)
    (chain_curve, path, t), = mesh.chains
    assert chain_curve == curve and len(path) == 9
    gap = np.hypot(*(mesh.nodes[path] - curve.point(t)).T)
    assert gap.max() < 1e-12


def test_triangulate_rejects_bad_n():
    with pytest.raises(ValueError):
        triangulate(square_domain(), 0)


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
