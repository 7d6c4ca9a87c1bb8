"""Built-in problem domains.

A domain specification names its kind, lists the Ventcel pieces as
parametrized curves (with outward orientation recorded on the curve)
and carries the parameters the mesh generator needs.  The rest of the
boundary is Dirichlet; the mesh generator lists those edges itself.

Built-ins:

    cable    region between the convex cable arc and the x axis;
             the arc is the Ventcel boundary, the three straight
             sides are Dirichlet
    square   unit square (0,1) x (1,2); bottom and top edges Ventcel,
             left and right edges Dirichlet
    annulus  ring r_inner < |p| < r_outer, 1e-50 <= r_inner and
             r_outer <= 1e50; one circle Ventcel, the other Dirichlet
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import CableArc, Circle, Segment


class InputError(ValueError):
    """The input breaks the problem's assumptions; the message names the key."""


class InternalError(RuntimeError):
    """An invariant of the program failed; no input can cause it."""


# radii an annulus mesh can hold (its areas and quality stay finite, > 0)
R_MIN, R_MAX = 1e-50, 1e50


@dataclass
class DomainSpec:
    kind: str
    ventcel_curves: tuple
    params: dict = field(default_factory=dict)


def cable_domain() -> DomainSpec:
    return DomainSpec("cable", (CableArc(),))


def square_domain() -> DomainSpec:
    bottom = Segment((0.0, 1.0), (1.0, 1.0), normal_sign=-1)
    top = Segment((0.0, 2.0), (1.0, 2.0), normal_sign=+1)
    return DomainSpec("square", (bottom, top))


def annulus_domain(r_inner=1.0, r_outer=2.0, ventcel_on="outer") -> DomainSpec:
    if not R_MIN <= r_inner < r_outer <= R_MAX:
        raise InputError(f"domain: annulus needs {R_MIN:g} <= r_inner < "
                         f"r_outer <= {R_MAX:g}, got {r_inner!r}, {r_outer!r}")
    if ventcel_on not in ("inner", "outer"):
        raise InputError("domain: ventcel_on must be 'inner' or 'outer'")
    if ventcel_on == "outer":
        curve = Circle(r_outer, normal_sign=-1)
    else:
        curve = Circle(r_inner, normal_sign=+1)
    params = {"r_inner": float(r_inner), "r_outer": float(r_outer),
              "ventcel_on": ventcel_on}
    return DomainSpec("annulus", (curve,), params)


def make_domain(text: str) -> DomainSpec:
    """Domain from its config string: cable | square | annulus[:r0,r1,side]."""
    text = text.strip()
    if text == "cable":
        return cable_domain()
    if text == "square":
        return square_domain()
    if text == "annulus":
        return annulus_domain()
    if text.startswith("annulus:"):
        parts = text[len("annulus:"):].split(",")
        if len(parts) != 3:
            raise InputError(
                f"domain: annulus takes r_inner,r_outer,side, got {text!r}")
        try:
            r0, r1 = float(parts[0]), float(parts[1])
        except ValueError:
            raise InputError(f"domain: bad radius in {text!r}") from None
        return annulus_domain(r0, r1, parts[2].strip())
    raise InputError(f"domain: unknown domain {text!r}")
