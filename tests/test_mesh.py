import numpy as np
import pytest

from ventcelfem.domain import annulus_domain, cable_domain, make_domain, square_domain
from ventcelfem.mesh import (mesh_quality, node_count, read_mesh, triangulate,
                            write_mesh)

DOMAINS = [cable_domain(), square_domain(), annulus_domain(),
           annulus_domain(1.0, 2.0, "inner")]


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.params.get("ventcel_on", d.kind))
def test_builders_produce_valid_meshes(dom):
    for n in (2, 5):
        mesh = triangulate(dom, n)
        assert mesh.validate() == []
        assert np.all(mesh.signed_areas() > 0)


def test_square_counts():
    mesh = triangulate(square_domain(), 2)
    assert len(mesh.nodes) == 9
    assert len(mesh.triangles) == 8
    tags = [e.tag for e in mesh.bedges]
    assert tags.count("ventcel") == 4
    assert tags.count("dirichlet") == 4
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
    for e in mesh.bedges:
        if e.tag != "ventcel":
            continue
        for node, t in ((e.a, e.ta), (e.b, e.tb)):
            gap = np.hypot(*(mesh.nodes[node] - curve.point(t)))
            assert gap < 1e-12


def test_triangulate_rejects_bad_n():
    with pytest.raises(ValueError):
        triangulate(square_domain(), 0)


@pytest.mark.parametrize("text", ["cable", "square", "annulus"])
def test_mesh_round_trip(tmp_path, text):
    mesh = triangulate(make_domain(text), 3)
    path = str(tmp_path / "mesh.txt")
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.nodes, mesh.nodes)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert len(back.bedges) == len(mesh.bedges)
    for e0, e1 in zip(mesh.bedges, back.bedges):
        assert (e0.a, e0.b, e0.tag) == (e1.a, e1.b, e1.tag)
        if e0.tag == "ventcel":
            assert e0.curve == e1.curve
            assert e0.ta == e1.ta and e0.tb == e1.tb
    assert back.validate() == []


def test_read_mesh_rejects_garbage(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a mesh\n")
    with pytest.raises(ValueError):
        read_mesh(str(path))


def test_read_mesh_rejects_clockwise_triangle(tmp_path):
    path = tmp_path / "mesh.txt"
    write_mesh(triangulate(square_domain(), 2), str(path))
    lines = path.read_text().splitlines()
    first = lines.index("TRIANGLES 8") + 1
    a, b, c = lines[first].split()
    lines[first] = f"{a} {c} {b}"           # triangle 0 now clockwise
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="triangle 0 has nonpositive area"):
        read_mesh(str(path))


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.params.get("ventcel_on", d.kind))
def test_node_count_matches_triangulate(dom):
    for n in range(1, 7):
        assert node_count(dom, n) == len(triangulate(dom, n).nodes)


@pytest.mark.parametrize("dom", DOMAINS[:3], ids=lambda d: d.kind)
def test_mesh_quality_floor(dom):
    for n in (4, 8):
        assert mesh_quality(triangulate(dom, n)) > 0.2
