"""The `Fraction` versions of the exact kernel, kept as differential oracles.

`wazz.linalg` and `wazz.polyhedra` now eliminate, scale and evaluate facets
on integers.  These are the routines they replaced, one `Fraction` operation
per entry: `rref`, `kernel_basis`, `solve`, `_Echelon`, `primitive`, the gauge and
cone-membership evaluations over `Fraction` facets, the Z closure that
re-applied every map to the whole basis each round, and the double
description's initial simplex (an `_Echelon` pass, then the rref of
[B | I]).  The tests require equal values of equal type.

`_int_rref` is the fraction-free Gauss-Jordan loop that every reduced row
echelon form of the package ran before they all grew an `_Echelon` read by
one back-substitution (`_Echelon.reduced`); the tests require its pivots
and its rows over their pivot entries.

`_rref_beside_identity` is the second elimination that `wazz.linalg` kept
beside `_Echelon.reduced` until the double description's start and the
verifier's carrier factorization read one `_reduced` of the whole matrix:
the rows of [G | d I] inserted once, their pivots sought in G's columns
only, the equation rows left unreduced.  `GColumnsSpan` is `_Span`
factored that way, and `FullSpan` the whole [D G | D I] eliminated by
`_int_rref`, every row pivoting in one column.  The tests require the
rank, pivots, coordinates, gauges, cone tests and facets of `_Span` from
both.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from matvec_oracle import (entrywise_apply, entrywise_dot, fraction_rows, fractions, funit,
                           ineq_pairs, vector, vneg, vrep, zeros)
from wazz.linalg import (Lattice, Mat, _Echelon, _eliminate, _pivot_scales, as_int_vec,
                         is_integral, is_zero)
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


def _int_rref(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place;
    returns the pivot columns.

    Afterwards row i < rank has a nonzero entry at pivot i and zeros at every
    other pivot column, and the rows from the rank on are zero; dividing row
    i by its pivot entry gives the reduced row echelon form."""
    nr = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        for i in range(nr):
            if i != r and rows[i][c]:
                rows[i] = _eliminate(rows[i], prow, c)
        pivots.append(c)
        r += 1
    return pivots


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


def _hnf_rows(rows, carry=None):
    """In-place row HNF on integer row lists; `carry` rows get the same ops.
    Returns the rank; the rows from it on are zero."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    r = 0
    for c in range(nc):
        while True:
            nonzero = [i for i in range(r, nr) if rows[i][c] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: abs(rows[i][c]))
            if i0 != r:
                rows[i0], rows[r] = rows[r], rows[i0]
                if carry is not None:
                    carry[i0], carry[r] = carry[r], carry[i0]
            done = True
            for i in range(r + 1, nr):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    if carry is not None:
                        carry[i] = [a - q * b for a, b in zip(carry[i], carry[r])]
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if r < nr and rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-a for a in rows[r]]
                if carry is not None:
                    carry[r] = [-a for a in carry[r]]
            for i in range(r):
                q = rows[i][c] // rows[r][c]
                if q:
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    if carry is not None:
                        carry[i] = [a - q * b for a, b in zip(carry[i], carry[r])]
            r += 1
            if r == nr:
                break
    return r


def hnf(rows, dim):
    """Lattice spanned by the integer rows, by one `_hnf_rows`."""
    work = [list(as_int_vec(r)) for r in rows if any(r)]
    if not work:
        return Lattice(dim, ())
    rank = _hnf_rows(work)
    return Lattice(dim, tuple(tuple(r) for r in work[:rank]))


def hnf_with_transform(rows, dim):
    """(lattice, transform rows, rank) as `wazz.linalg.hnf_with_transform`
    gives them, by one `_hnf_rows` with the identity carried beside."""
    rows = [list(as_int_vec(r)) for r in rows]
    k = len(rows)
    carry = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    if not rows:
        return Lattice(dim, ()), [], 0
    rank = _hnf_rows(rows, carry)
    basis = tuple(tuple(r) for r in rows[:rank] if any(r))
    return Lattice(dim, basis), [tuple(r) for r in carry], len(basis)


def z_closure(start, maps):
    """HNF basis of the smallest lattice containing `start` and closed under
    the integer maps: every round applies every map to every basis vector and
    re-runs the oracle's `hnf`, until the HNF stops changing."""
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


def _rref_beside_identity(cols, nrows, d=1):
    """(pivot columns, rows) of [G | d I], G having the integer columns cols
    of length nrows: its rows inserted into one `_Echelon`, pivoting in G's
    k columns only, read as [R | d E] with E G = R, R being G's rref up to a
    positive factor per row, and E invertible.  A row whose residue vanishes
    on G's columns stays, unreduced, an equation row [0 | d E'] after them,
    and E' is a basis of the equations of G's column span."""
    k, span, equations = len(cols), _Echelon(), []
    for j in range(nrows):
        row = [col[j] for col in cols] + [0] * nrows
        row[k + j] = d
        res = span.residue(row)
        if any(res[:k]):
            span.add(res)
        else:
            equations.append(res)
    pivots, rows = span.reduced()
    return pivots, rows + equations


class GColumnsSpan(_Span):
    """`_Span` factored by one `_rref_beside_identity` of [D G | D I]: the
    pivots sought in D G's k columns only, the equation rows unreduced."""

    __slots__ = ()

    def __init__(self, gens, dim):
        k, den = len(gens), lcm(*[d for d, _ in gens])
        cols = [ints if d == den else [a * (den // d) for a in ints] for d, ints in gens]
        pivots, rows = _rref_beside_identity(cols, dim, den)
        self._pivots = tuple(pivots)
        self.k, self.rank = k, len(pivots)
        self.independent = self.rank == len({g for g in gens if any(g[1])})
        e_den, scales = _pivot_scales(rows, pivots)
        scales += [1] * (dim - self.rank)
        e_rows = []
        for row, scale in zip(rows, scales):
            support = tuple(j for j in range(dim) if row[k + j])
            e_rows.append((support, tuple(row[k + j] * scale for j in support)))
        self._e = e_den, e_rows, dim
        self._g = *Mat._of_cols(den, cols, dim).scaled(), k
        self._gens, self._facets = gens, {}
