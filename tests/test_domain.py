import pytest

from ventcelfem.domain import (
    annulus_domain,
    cable_domain,
    make_domain,
    square_domain,
)
from ventcelfem.geometry import CableArc


def test_cable_domain_spec():
    dom = cable_domain()
    assert dom.kind == "cable"
    (arc,) = dom.ventcel_curves
    assert isinstance(arc, CableArc)


def test_square_domain_spec():
    dom = square_domain()
    bottom, top = dom.ventcel_curves
    assert bottom.normal_sign == -1
    assert top.normal_sign == +1


@pytest.mark.parametrize("side,sign,radius", [("outer", -1, 2.0), ("inner", 1, 1.0)])
def test_annulus_domain_spec(side, sign, radius):
    dom = annulus_domain(1.0, 2.0, ventcel_on=side)
    curve = dom.ventcel_curves[0]
    assert curve.closed
    assert curve.normal_sign == sign
    assert curve.radius == radius


def test_annulus_rejects_bad_radii():
    with pytest.raises(ValueError):
        annulus_domain(2.0, 1.0)
    with pytest.raises(ValueError):
        annulus_domain(0.0, 1.0)
    with pytest.raises(ValueError):
        annulus_domain(1.0, 2.0, ventcel_on="top")


def test_make_domain_grammar():
    assert make_domain("cable").kind == "cable"
    assert make_domain(" square ").kind == "square"
    dom = make_domain("annulus:0.5,3,inner")
    assert dom.params["r_inner"] == 0.5
    assert dom.params["r_outer"] == 3.0
    assert dom.params["ventcel_on"] == "inner"
    assert make_domain("annulus").params["ventcel_on"] == "outer"


@pytest.mark.parametrize("text", ["hexagon", "annulus:1,2", "annulus:a,2,outer"])
def test_make_domain_rejects(text):
    with pytest.raises(ValueError):
        make_domain(text)
