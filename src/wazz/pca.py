"""The subcubic convex functor on positively convex algebras.

An element of the functor applied to a carrier X is a pair (o, phi) of an
output weight and one vector per letter, subject to the joint budget
o >= 0 and o + sum_a mu_X(phi(a)) <= 1, where mu_X is the Minkowski
functional of X.  Coalgebras for it live on simplices and, more generally,
on compact polytopes between the simplex and the positive orthant; those can
always be enlarged to a free carrier, a pyramid {x >= 0 : <x, u> <= 1}, whose
normal u is the least solution of a fixed-point system and is found by one
integer `wazz.linalg.solve` (see `pyramid_extension`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .automata import SemiringTag, WeightedAutomaton
from .linalg import Mat, _lowest_terms, _selection, scaled_dot, solve
from .polyhedra import INFINITY, InternalError, PcaPolytope


class InvariantZeroSet(Exception):
    """The output functional vanishes on an invariant coordinate set."""

    def __init__(self, indices):
        super().__init__(f"zero-output invariant coordinates {sorted(indices)}")
        self.indices = frozenset(indices)


@dataclass(frozen=True)
class PyramidCert:
    """A strictly positive normal vector u and the free generators e_j / u_j
    of the pyramid {x >= 0 : <x, u> <= 1}, all scaled."""

    u: tuple
    generators: tuple

    def polytope(self):
        return PcaPolytope(len(self.u[1]), self.generators)


def ghat_breach(o, images, mu):
    """How the candidate element (o, images) of the functor at a carrier with
    Minkowski functional mu breaks the joint budget o >= 0 and
    o + sum_a mu(images_a) <= 1: None if it keeps it, else "output" for
    o < 0, "cone" at the first image with an infinite gauge, or the total
    when it exceeds 1.  o, the total and every finite gauge are integer
    ratios (p, q), q > 0, summed by cross-multiplication.  The gauge is the
    caller's, so no facets are needed here."""
    num, den = o
    if num < 0:
        return "output"
    for v in images:
        g = mu(v)
        if g is INFINITY:
            return "cone"
        num, den = num * g[1] + g[0] * den, den * g[1]
    return (num, den) if num > den else None


def invariant_zero_set(out, trans):
    """Greatest index set with zero outputs whose transition columns have
    support inside the set; empty iff the nonvanishing condition holds."""
    supports = [set() for _ in out[1]]
    for m in trans:
        for i, (cols, _) in enumerate(m.scaled()[1]):
            for j in cols:
                supports[j].add(i)
    current = {j for j, q in enumerate(out[1]) if not q}
    while True:
        nxt = {j for j in current if supports[j] <= current}
        if nxt == current:
            return current
        current = nxt


def reduce_invariant_set(aut):
    """Quotient away zero-output invariant coordinates of a subconvex
    automaton.

    Returns (dropped original indices, quotient automaton, projection f);
    f deletes the dropped coordinates and is a coalgebra morphism onto the
    quotient.  One pass suffices: if S were an invariant zero set of the
    quotient, S with the dropped set D would be one of the original (the
    quotient's outputs and columns on S are the original's with the rows in
    D deleted), and D is the greatest, so S is empty.
    """
    if aut.tag is not SemiringTag.PCA:
        raise ValueError("reduction expects the subconvex automaton tag")
    dropped = invariant_zero_set(aut.out, aut.trans)
    keep = [j for j in range(aut.n) if j not in dropped]
    quotient = aut
    if dropped:
        # the output's and each letter's integers on the kept rows and columns
        quotient = WeightedAutomaton(
            tag=SemiringTag.PCA, n=len(keep), alphabet=aut.alphabet,
            out=_lowest_terms((aut.out[0], [aut.out[1][j] for j in keep])),
            trans=tuple(Mat._of_cols(m.den, [[rows[i][j] for i in keep] for j in keep], len(keep))
                        for m, rows in zip(aut.trans, map(Mat.dense, aut.trans))))
    return frozenset(dropped), quotient, _selection(keep, aut.n)


def fixed_point(out, trans):
    """Some scaled u with (I - N) u = out (N = sum_a M_a^T, free coordinates 0)
    or None, by `solve`: over d, the lcm of all denominators, column i of
    d (I - N) is d e_i minus every letter's row i, on integers."""
    forms = [m.scaled() for m in trans]
    n, den = len(out[1]), lcm(*[d for d, _ in forms])
    cols = [[den * (i == j) for j in range(n)] for i in range(n)]
    for d, sparse in forms:
        for col, (js, nums) in zip(cols, sparse):
            for j, a in zip(js, nums):
                col[j] -= a * (den // d)
    return solve(Mat._of_cols(den, cols, n), out)


def pyramid_extension(polytope, coalg):
    """A free enlargement of the carrier: a pyramid Y with X inside Y and the
    linear map sending Y into the functor at Y.

    The normal vector u has to satisfy, exactly over the rationals:
      u >= 0;  <g, u> <= 1 for every generator g of X;
      out_j + sum_a <M_a e_j, u> <= u_j for every coordinate j,
    the last rows being u >= out + N u with N = sum_a M_a^T.  Only the map
    fixes that system, so the input checks are that out and N are entrywise
    nonnegative (else ValueError) and have no invariant zero set (else
    InvariantZeroSet).  Every solution lies componentwise above the Neumann
    sum u* = sum_k N^k out, and u* satisfies the rows <g, u> <= 1 (g >= 0)
    whenever any solution does, so u* is the least solution.  A solution
    u > 0 with no invariant zero set forces spectral radius rho(N) < 1 (a
    left Perron vector of N for the eigenvalue 1 would have an invariant
    zero set as its support), so I - N is invertible and u* is the one
    solution of (I - N) u = out.  One integer `solve` finds it
    (`fixed_point`); u is then checked to be positive and, by one integer dot
    product per generator, to keep X inside the pyramid (InternalError
    otherwise, which no coalgebra on a carrier containing the simplex can
    cause).  With u = out + N u and u > 0, each generator e_j / u_j spends a
    budget of exactly 1, so these checks establish the whole postcondition.
    """
    n = polytope.dim
    if coalg.n != n:
        raise ValueError("dimension mismatch")
    if min(coalg.out[1], default=0) < 0 or any(a < 0 for m in coalg.trans
                                               for _, nums in m.scaled()[1] for a in nums):
        raise ValueError("output and letter entries must be nonnegative")
    bad = invariant_zero_set(coalg.out, coalg.trans)
    if bad:
        raise InvariantZeroSet(bad)
    u = fixed_point(coalg.out, coalg.trans)
    if u is None:
        raise InternalError("fixed-point system infeasible: (I - N) u = out has no solution")
    den, us = u
    if any(a <= 0 for a in us):
        raise InternalError("fixed point with a nonpositive coordinate")
    if any(num > d for num, d in (scaled_dot(g, u) for g in polytope.generators)):
        raise InternalError("fixed point puts a carrier generator outside the pyramid")
    return PyramidCert(u=u, generators=tuple(  # e_j / u_j = den e_j / us_j
        _lowest_terms((a, (0,) * j + (den,) + (0,) * (n - j - 1))) for j, a in enumerate(us)))
