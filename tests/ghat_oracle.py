"""Elements of the subcubic convex functor and their membership tests, as
test seams for `wazz.pca`.

The pipeline checks the functor's joint budget on integer images through
`wazz.pca.ghat_breach`; these are the `Fraction`-level entry points the
tests state the paper's properties with: an element (o, phi), its membership
at a subconvex hull, the functor's action on a linear map, and whether a
coalgebra maps a hull into the functor at another.  Each gauge is
`wazz.polyhedra.gauge`, taken as an integer ratio.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from wazz.linalg import scaled
from wazz.pca import ghat_breach
from wazz.polyhedra import INFINITY, gauge

from matvec_oracle import entrywise_apply, fractions, vdot, vector


@dataclass
class GhatElement:
    """A candidate functor element: output weight plus one vector per letter."""

    o: Fraction
    phi: dict

    def __post_init__(self):
        self.o = Fraction(self.o)
        self.phi = {a: vector(v) for a, v in self.phi.items()}


def gauge_ratio(polytope, x):
    g = gauge(polytope, scaled(x))  # as an integer ratio, or INFINITY
    return g if g is INFINITY else g.as_integer_ratio()


def pca_member(polytope, x):
    """Whether x (rationals) lies in the subconvex hull: its gauge is at most 1."""
    g = gauge(polytope, scaled(x))
    return g is not INFINITY and g <= 1


def ghat_member(polytope, element):
    """Exact membership test of an element in the functor at the polytope."""
    return ghat_breach(element.o.as_integer_ratio(), element.phi.values(),
                       partial(gauge_ratio, polytope)) is None


def ghat_apply(matrix, element):
    """Functor action on a convex map: keep o, push the letter vectors."""
    return GhatElement(element.o, {a: entrywise_apply(matrix, v)
                                   for a, v in element.phi.items()})


def is_ghat_coalgebra(x_poly, y_poly, coalg):
    """Whether the linear map sends the subconvex hull of X into the functor
    applied to Y; checking generators suffices by convexity."""
    mu, out = partial(gauge_ratio, y_poly), fractions(coalg.out)
    return all(ghat_breach(vdot(out, g).as_integer_ratio(),
                           (entrywise_apply(m, g) for m in coalg.trans), mu) is None
               for g in map(fractions, x_poly.generators))
