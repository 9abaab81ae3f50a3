"""The subcubic convex functor on positively convex algebras.

An element of the functor applied to a carrier X is a pair (o, phi) of an
output weight and one vector per letter, subject to the joint budget
o >= 0 and o + sum_a mu_X(phi(a)) <= 1, where mu_X is the Minkowski
functional of X.  Coalgebras for it live on simplices and, more generally,
on compact polytopes between the simplex and the positive orthant; those can
always be enlarged to a free carrier, a pyramid {x >= 0 : <x, u> <= 1}, whose
normal u is the least solution of a fixed-point system and is found by one
exact linear solve (see `pyramid_extension`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .automata import SemiringTag, WeightedAutomaton
from .linalg import Mat, solve, unit, vdot, vector
from .polyhedra import INFINITY, InternalError, PcaPolytope, gauge, pca_member


class InvariantZeroSet(Exception):
    """The output functional vanishes on an invariant coordinate set."""

    def __init__(self, indices):
        super().__init__(f"zero-output invariant coordinates {sorted(indices)}")
        self.indices = frozenset(indices)


@dataclass
class GhatElement:
    """A candidate functor element: output weight plus one vector per letter."""

    o: Fraction
    phi: dict

    def __post_init__(self):
        self.o = Fraction(self.o)
        self.phi = {a: vector(v) for a, v in self.phi.items()}


@dataclass(frozen=True)
class LinearCoalgebra:
    """Linear structure map on ambient coordinates: an output functional and
    one square matrix per letter."""

    n: int
    alphabet: tuple
    out: tuple
    trans: tuple

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "out", vector(self.out))
        object.__setattr__(self, "trans", tuple(self.trans))
        if len(self.out) != self.n:
            raise ValueError("output functional has wrong length")
        if len(self.trans) != len(self.alphabet):
            raise ValueError("one matrix per letter required")
        for m in self.trans:
            if m.nrows != self.n or m.ncols != self.n:
                raise ValueError("transition matrix has wrong shape")

    def mat(self, symbol):
        return self.trans[self.alphabet.index(symbol)]

    def element_at(self, x):
        return GhatElement(vdot(self.out, x),
                           {a: self.mat(a).apply(x) for a in self.alphabet})


@dataclass(frozen=True)
class PyramidCert:
    """A strictly positive normal vector u and the free generators e_j / u_j
    of the pyramid {x >= 0 : <x, u> <= 1}."""

    u: tuple
    generators: tuple

    def polytope(self):
        return PcaPolytope(len(self.u), self.generators)


def ghat_member(polytope, element):
    """Exact membership test: o >= 0 and o + sum of letter gauges <= 1."""
    if element.o < 0:
        return False
    total = element.o
    for v in element.phi.values():
        g = gauge(polytope, v)
        if g is INFINITY:
            return False
        total += g
    return total <= 1


def ghat_apply(matrix, element):
    """Functor action on a convex map: keep o, push the letter vectors."""
    return GhatElement(element.o, {a: matrix.apply(v) for a, v in element.phi.items()})


def is_ghat_coalgebra(x_poly, y_poly, coalg):
    """Whether the linear map sends the subconvex hull of X into the functor
    applied to Y; checking generators suffices by convexity."""
    return all(ghat_member(y_poly, coalg.element_at(g)) for g in x_poly.generators)


def invariant_zero_set(out, trans):
    """Greatest index set with zero outputs whose transition columns have
    support inside the set; empty iff the nonvanishing condition holds."""
    n = len(out)
    current = {j for j in range(n) if out[j] == 0}
    while True:
        nxt = {j for j in current
               if all(all(m.col(j)[i] == 0 or i in current for i in range(n))
                      for m in trans)}
        if nxt == current:
            return current
        current = nxt


def reduce_invariant_set(aut):
    """Quotient away zero-output invariant coordinates of a subconvex
    automaton.

    Returns (dropped original indices, quotient automaton, projection f);
    f deletes the dropped coordinates and is a coalgebra morphism onto the
    quotient.  The quotient admits no further nonempty invariant zero set.
    """
    if aut.tag is not SemiringTag.PCA:
        raise ValueError("reduction expects the subconvex automaton tag")
    keep = list(range(aut.n))
    current = aut
    while True:
        dropped = invariant_zero_set(current.out, current.trans)
        if not dropped:
            break
        kept = [j for j in range(current.n) if j not in dropped]
        k = len(kept)
        out = vector(current.out[j] for j in kept)
        trans = tuple(Mat([[m.rows[i][j] for j in kept] for i in kept], ncols=k)
                      for m in current.trans)
        current = WeightedAutomaton(tag=SemiringTag.PCA, n=k,
                                    alphabet=current.alphabet, out=out, trans=trans)
        keep = [keep[j] for j in kept]
    proj = Mat([unit(aut.n, j) for j in keep], ncols=aut.n)
    dropped_total = frozenset(range(aut.n)) - frozenset(keep)
    return dropped_total, current, proj


def pyramid_extension(polytope, coalg):
    """A free enlargement of the carrier: a pyramid Y with X inside Y and the
    linear map sending Y into the functor at Y.

    The normal vector u has to satisfy, exactly over the rationals:
      u >= 0;  <g, u> <= 1 for every generator g of X;
      out_j + sum_a <M_a e_j, u> <= u_j for every coordinate j,
    the last rows being u >= out + N u with N = sum_a M_a^T >= 0.  Every
    solution lies componentwise above the Neumann sum u* = sum_k N^k out, and
    u* satisfies the rows <g, u> <= 1 (g >= 0) whenever any solution does, so
    u* is the least solution.  A solution u > 0 with no invariant zero set
    forces spectral radius rho(N) < 1 (a left Perron vector of N for the
    eigenvalue 1 would have an invariant zero set as its support), so I - N
    is invertible and u* is the one solution of (I - N) u = out.  That
    system is solved once; its solution is then checked to be positive and
    to keep X inside the pyramid.  A failure of either, or of the solve, means
    no positive solution exists, which the preconditions rule out.
    """
    n = polytope.dim
    if coalg.n != n:
        raise ValueError("dimension mismatch")
    for j in range(n):
        if not pca_member(polytope, unit(n, j)):
            raise ValueError("carrier must contain the standard simplex")
    if not is_ghat_coalgebra(polytope, polytope, coalg):
        raise ValueError("map is not a coalgebra on the given carrier")
    bad = invariant_zero_set(coalg.out, coalg.trans)
    if bad:
        raise InvariantZeroSet(bad)
    # row j of I - N is e_j minus the sum over letters of column j of M_a
    rows = []
    for j in range(n):
        row = list(unit(n, j))
        for m in coalg.trans:
            for i, c in enumerate(m.col(j)):
                row[i] -= c
        rows.append(row)
    u = solve(Mat(rows, ncols=n), coalg.out)
    if u is None:
        raise InternalError("fixed-point system infeasible: (I - N) u = out has no "
                            "solution on a valid coalgebra")
    if any(q <= 0 for q in u):
        raise InternalError("fixed point with a nonpositive coordinate despite the "
                            "nonvanishing condition")
    if any(vdot(g, u) > 1 for g in polytope.generators):
        raise InternalError("fixed point puts a carrier generator outside the pyramid")
    gens = tuple(vector([Fraction(1, 1) / u[j] if i == j else 0 for i in range(n)])
                 for j in range(n))
    return PyramidCert(u=vector(u), generators=gens)
