"""The `Fraction` versions of the exact kernel, kept as differential oracles.

`wazz.linalg` and `wazz.polyhedra` now eliminate, scale and evaluate facets
on integers.  These are the routines they replaced, one `Fraction` operation
per entry: `rref`, `kernel_basis`, `solve`, `_Echelon`, `primitive`, the gauge and
cone-membership evaluations over `Fraction` facets, the Z closure that
re-applied every map to the whole basis each round, and the double
description's initial simplex (an `_Echelon` pass, then the rref of
[B | I]).  The tests require equal values of equal type.

`FullSpan` is the verifier's carrier factorization as it was before its
elimination stopped at the generators' columns: the whole [D G | D I]
eliminated, every row pivoting in one column.  The tests require the
rank, pivots, coordinates, gauges, cone tests and facets of `_Span`.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from matvec_oracle import (entrywise_apply, entrywise_dot, fraction_rows, fractions, funit,
                           ineq_pairs, vector, vneg, vrep, zeros)
from wazz.linalg import Lattice, Mat, _int_rref, as_int_vec, hnf, is_integral, is_zero
from wazz.polyhedra import INFINITY, _Span, cone_rays, dd_v_to_h


def primitive(v, flip_sign=False):
    if is_zero(v):
        return tuple(0 for _ in v)
    den = 1
    for a in v:
        den = den * Fraction(a).denominator // gcd(den, Fraction(a).denominator)
    ints = [int(a * den) for a in v]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    ints = [a // g for a in ints]
    if flip_sign:
        lead = next(a for a in ints if a != 0)
        if lead < 0:
            ints = [-a for a in ints]
    return tuple(ints)


def rref(m):
    """Reduced row echelon form: returns (R, pivot columns, rank)."""
    rows = [list(map(Fraction, r)) for r in fraction_rows(m)]
    nr, nc = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Mat(rows, ncols=nc), tuple(pivots), len(pivots)


def kernel_basis(m):
    """Basis of {x : Mx = 0}, one primitive vector per free column, from the
    `Fraction` rref."""
    red, pivots, _ = rref(m)
    basis = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * m.ncols
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -fraction_rows(red)[i][free]
        basis.append(vector(primitive(v, flip_sign=True)))
    return basis


def solve(m, b):
    """Some x with Mx = b for the `Fraction` vector b, free variables zero,
    or None if inconsistent: the pivot rows of the `Fraction` rref of
    [M | b] read back."""
    if len(b) != m.nrows:
        raise ValueError("right-hand side has wrong length")
    if m.nrows == 0:
        return (Fraction(0),) * m.ncols
    aug = Mat(tuple(tuple(r) + (bv,) for r, bv in zip(fraction_rows(m), b)), ncols=m.ncols + 1)
    red, pivots, rank = rref(aug)
    if pivots and pivots[-1] == m.ncols:
        return None
    x, rows = [Fraction(0)] * m.ncols, fraction_rows(red)
    for i, p in enumerate(pivots):
        x[p] = rows[i][m.ncols]
    return tuple(x)


class Echelon:
    """Incremental echelon form used to test membership in a Q-span."""

    def __init__(self):
        self.rows = []  # (pivot index, vector with pivot entry 1)

    def residue(self, v):
        v = list(v)
        for p, row in self.rows:
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, v):
        """Insert v; returns False if v was already in the span."""
        res = self.residue(v)
        p = next((i for i, a in enumerate(res) if a != 0), None)
        if p is None:
            return False
        inv = 1 / Fraction(res[p])
        self.rows.append((p, [a * inv for a in res]))
        return True

    def contains(self, v):
        return all(a == 0 for a in self.residue(v))


def echelon_contains(ech, ints):
    """Whether the integer vector lies in the span of `wazz.linalg._Echelon`'s
    rows: its residue against them vanishes."""
    return not any(ech.residue(ints))


def initial_simplex_rays(normals, dim):
    """(chosen indices, rays) of the double description's first step: the
    first `dim` independent normals B, and primitive(-column j of B^-1)."""
    normals = [primitive(a) for a in normals]
    ech = Echelon()
    base = []
    for i, a in enumerate(normals):
        if ech.add(a):
            base.append(i)
            if len(base) == dim:
                break
    else:
        raise ValueError("constraint matrix does not have full rank")
    red, _, _ = rref(Mat([normals[k] + funit(dim, j) for j, k in enumerate(base)]))
    rays = [primitive(tuple(-row[dim + j] for row in fraction_rows(red))) for j in range(dim)]
    return base, rays


@lru_cache(maxsize=None)
def subconvex_facets(polytope):
    """H-form of the subconvex hull (the hull of the generators and 0)."""
    points = tuple(fractions(g) for g in polytope.generators)
    return ineq_pairs(dd_v_to_h(vrep(polytope.dim, (zeros(polytope.dim),) + points)))


def gauge(polytope, x):
    """Minkowski functional of the subconvex hull at the scaled x; INFINITY
    outside its cone."""
    x = fractions(x)
    if len(x) != polytope.dim:
        raise ValueError("point of wrong dimension")
    best = Fraction(0)
    for a, b in subconvex_facets(polytope):
        value = entrywise_dot(a, x)
        if b == 0:
            if value > 0:
                return INFINITY
        else:
            ratio = value / b
            if ratio > best:
                best = ratio
    return best


@lru_cache(maxsize=None)
def cone_facet_normals(gens, dim):
    """Normals n with cone(gens) = {x : <n, x> <= 0 for all n}."""
    lineality, rays = cone_rays(tuple(gens), dim)
    normals = list(rays)
    for l in lineality:
        normals.append(vector(primitive(l)))
        normals.append(vector(primitive(vneg(l))))
    return tuple(sorted(set(normals)))


def cone_member(gens, x):
    """Exact membership of the scaled x in the convex cone spanned by the
    scaled gens."""
    x = fractions(x)
    return all(entrywise_dot(n, x) <= 0
               for n in cone_facet_normals(tuple(fractions(g) for g in gens), len(x)))


def z_closure(start, maps):
    """HNF basis of the smallest lattice containing `start` and closed under
    the integer maps: every round applies every map to every basis vector and
    re-runs `hnf`, until the HNF stops changing."""
    n = len(start)
    if not is_integral(start):
        raise ValueError("ring Z needs integral start")
    for m in maps:
        for r in fraction_rows(m):
            if not is_integral(r):
                raise ValueError("ring Z needs integral maps")
    lat = hnf([as_int_vec(start)], dim=n) if not is_zero(start) else Lattice(n, ())
    while True:
        new_rows = list(lat.basis)
        for b in lat.basis:
            for m in maps:
                new_rows.append(as_int_vec(entrywise_apply(m, b)))
        nxt = hnf(new_rows, dim=n) if new_rows else Lattice(n, ())
        if nxt == lat:
            return [tuple(r) for r in lat.basis]
        lat = nxt


class FullSpan(_Span):
    """`_Span` factored by one `_int_rref` of the whole [D G | D I]: the rows
    below the rank pivot in the identity block and reduce the rows above."""

    __slots__ = ()

    def __init__(self, gens, dim):
        k, den = len(gens), lcm(*[d for d, _ in gens])
        cols = [ints if d == den else [a * (den // d) for a in ints] for d, ints in gens]
        rows = [list(r) + [0] * dim for r in zip(*cols)] or [[0] * dim for _ in range(dim)]
        for j, row in enumerate(rows, k):
            row[j] = den
        pivots = _int_rref(rows, k + dim)
        self._pivots = tuple(p for p in pivots if p < k)
        self.k, self.rank = k, len(self._pivots)
        self.independent = self.rank == len({g for g in gens if any(g[1])})
        e_den = lcm(*(row[p] for row, p in zip(rows, pivots)))
        e_rows = []
        for row, p in zip(rows, pivots):
            scale = e_den // row[p]
            support = tuple(j for j in range(dim) if row[k + j])
            e_rows.append((support, tuple(row[k + j] * scale for j in support)))
        self._e = e_den, e_rows, dim
        self._g = *Mat._of_cols(den, cols, dim).scaled(), k
        self._gens, self._facets = gens, {}
