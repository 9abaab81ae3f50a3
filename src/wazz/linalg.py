"""Exact rational and integer linear algebra.

Scalars are arbitrary-precision rationals (`fractions.Fraction`); vectors are
plain tuples.  Integer lattice vectors are tuples of `int`, which mix freely
with Fraction in arithmetic, equality and hashing.  Every operation here is
pure and exact; dimensions must match, there is no broadcasting.

Matrix-vector products run fraction-free.  On its first `apply` a `Mat`
caches its scaled-integer row form: per row, the least common denominator d
of its entries and the integer numerators d * entry of its nonzero entries
with their column indices.  `apply(x)` scales x once to integers over its own
common denominator e, takes each output entry as one integer sum over the
row's nonzeros, and makes a single `Fraction(sum, d * e)` of it: the same
values as the entrywise product, with one normalizing gcd per entry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul


def vector(entries):
    return tuple(Fraction(e) for e in entries)


def zeros(n):
    return (Fraction(0),) * n


def unit(n, i):
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))


def vneg(v):
    return tuple(-a for a in v)


def vscale(c, v):
    return tuple(c * a for a in v)


def vdot(u, v):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def is_zero(v):
    return all(a == 0 for a in v)


def is_nonneg(v):
    return all(a >= 0 for a in v)


def is_integral(v):
    return all(isinstance(a, int) or a.denominator == 1 for a in v)


def as_int_vec(v):
    if not is_integral(v):
        raise ValueError(f"not an integer vector: {v}")
    return tuple(int(a) for a in v)


def primitive(v, flip_sign=False):
    """Scale a rational vector to coprime integers.

    Scaling is by a positive rational, so the direction is kept; with
    `flip_sign` the first nonzero entry is additionally made positive
    (canonical form for basis vectors, not for rays).
    """
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


class Mat:
    """Dense exact-rational matrix; `rows[i][j]` is the entry in row i, col j."""

    __slots__ = ("rows", "ncols", "_int_rows")

    def __init__(self, rows, ncols=None):
        # Fractions are immutable, so entries that already are one are shared
        rows = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in r)
                     for r in rows)
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise ValueError("ragged matrix")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row width")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self.rows = rows
        self.ncols = ncols
        self._int_rows = None

    @property
    def nrows(self):
        return len(self.rows)

    @classmethod
    def identity(cls, n):
        return cls(tuple(unit(n, i) for i in range(n)), ncols=n)

    @classmethod
    def zero(cls, nrows, ncols):
        return cls(tuple(zeros(ncols) for _ in range(nrows)), ncols=ncols)

    @classmethod
    def from_cols(cls, cols, nrows=None):
        cols = [tuple(c) for c in cols]
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            raise ValueError("empty column list needs an explicit row count")
        return cls(tuple(tuple(c[i] for c in cols) for i in range(nrows)), ncols=len(cols))

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def apply(self, x):
        """Matrix times column vector, a tuple of Fraction (see the module
        docstring for the scaled-integer form it runs on)."""
        if len(x) != self.ncols:
            raise ValueError(f"dimension mismatch: {self.ncols} cols vs vector of {len(x)}")
        int_rows = self._int_rows
        if int_rows is None:
            int_rows = self._int_rows = tuple(_scaled_row(r) for r in self.rows)
        x_den = lcm(*(a.denominator for a in x))
        xs = [a.numerator * (x_den // a.denominator) for a in x]
        pick = xs.__getitem__
        return tuple(Fraction(sum(map(mul, nums, map(pick, cols))), den * x_den)
                     for den, cols, nums in int_rows)

    def __matmul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions disagree")
        return Mat.from_cols([self.apply(c) for c in other.cols()], nrows=self.nrows)

    def transpose(self):
        return Mat(tuple(self.col(j) for j in range(self.ncols)), ncols=self.nrows)

    @staticmethod
    def block_diag(a, b):
        top = tuple(tuple(r) + zeros(b.ncols) for r in a.rows)
        bottom = tuple(zeros(a.ncols) + tuple(r) for r in b.rows)
        return Mat(top + bottom, ncols=a.ncols + b.ncols)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self):
        return hash((self.ncols, self.rows))

    def __repr__(self):
        return f"Mat({[list(map(str, r)) for r in self.rows]})"


def _scaled_row(row):
    """(d, column indices, integer numerators) of a row's nonzero entries,
    d being the least common denominator of the row."""
    den = lcm(*(a.denominator for a in row))
    cols = tuple(j for j, a in enumerate(row) if a)
    return den, cols, tuple(row[j].numerator * (den // row[j].denominator) for j in cols)


def rref(m):
    """Reduced row echelon form: returns (R, pivot columns, rank)."""
    rows = [list(map(Fraction, r)) for r in m.rows]
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
    """Basis of {x : Mx = 0}, one primitive vector per free column."""
    red, pivots, rank = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * m.ncols
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red.rows[i][free]
        basis.append(vector(primitive(v, flip_sign=True)))
    return basis


def solve(m, b):
    """Some x with Mx = b, or None if inconsistent. Free variables are zero."""
    if len(b) != m.nrows:
        raise ValueError("right-hand side has wrong length")
    if m.nrows == 0:
        return zeros(m.ncols)
    aug = Mat(tuple(tuple(r) + (bv,) for r, bv in zip(m.rows, b)), ncols=m.ncols + 1)
    red, pivots, rank = rref(aug)
    if pivots and pivots[-1] == m.ncols:
        return None
    x = [Fraction(0)] * m.ncols
    for i, p in enumerate(pivots):
        x[p] = red.rows[i][m.ncols]
    return tuple(x)


@dataclass(frozen=True)
class Lattice:
    """Subgroup of Z^dim given by a basis in row-style Hermite normal form."""

    dim: int
    basis: tuple

    @property
    def rank(self):
        return len(self.basis)


def _hnf_rows(rows, carry=None):
    """In-place row HNF on integer row lists; `carry` rows get the same ops."""
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


def hnf(rows, dim=None):
    """Lattice spanned by integer rows, with basis in Hermite normal form."""
    rows = [list(as_int_vec(r)) for r in rows]
    if dim is None:
        if not rows:
            raise ValueError("empty generating set needs an explicit dimension")
        dim = len(rows[0])
    for r in rows:
        if len(r) != dim:
            raise ValueError("dimension mismatch in generating set")
    work = [r[:] for r in rows if any(r)]
    if not work:
        return Lattice(dim, ())
    rank = _hnf_rows(work)
    return Lattice(dim, tuple(tuple(r) for r in work[:rank]))


def hnf_with_transform(rows, dim):
    """HNF plus a unimodular transform: U * rows_matrix = [H; 0].

    Returns (lattice, transform_rows, rank) where the first `rank` transform
    rows express the HNF basis as integer combinations of the input rows and
    the remaining ones span the left kernel of the input matrix.
    """
    rows = [list(as_int_vec(r)) for r in rows]
    k = len(rows)
    carry = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    work = [r[:] for r in rows]
    if not work:
        return Lattice(dim, ()), [], 0
    rank = _hnf_rows(work, carry)
    basis = tuple(tuple(r) for r in work[:rank] if any(r))
    return Lattice(dim, basis), [tuple(r) for r in carry], len(basis)


def lattice_reduce(v, lattice):
    """Canonical representative of v modulo the lattice (HNF reduction)."""
    v = list(as_int_vec(v))
    for row in lattice.basis:
        p = next(j for j, a in enumerate(row) if a)
        q = v[p] // row[p]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return tuple(v)


def lattice_member(v, lattice):
    if not is_integral(v):
        return False
    return all(a == 0 for a in lattice_reduce(v, lattice))


def lattice_coords(v, lattice):
    """Integer coordinates of v in the HNF basis, or None if v is outside."""
    v = list(as_int_vec(v))
    coords = []
    for row in lattice.basis:
        p = next(j for j, a in enumerate(row) if a)
        if v[p] % row[p]:
            return None
        q = v[p] // row[p]
        coords.append(q)
        v = [a - q * b for a, b in zip(v, row)]
    if any(v):
        return None
    return tuple(coords)


class _Echelon:
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


def _check_square(start, maps):
    if any(m.nrows != len(start) or m.ncols != len(start) for m in maps):
        raise ValueError("maps must be square of matching dimension")


def word_closure(start, maps):
    """Q-basis of the closure of `start` under all maps, breadth first, with
    provenance: yields (word, vector), word being the map indices (first
    applied first) that send `start` to vector.  Words come in shortlex order
    and span(images of words <= w) = span(basis vectors of words <= w), so
    the first basis vector a functional does not annihilate carries the
    shortlex-least word on which it is nonzero."""
    _check_square(start, maps)
    ech = _Echelon()
    queue = deque([((), vector(start))])
    while queue:
        word, v = queue.popleft()
        if ech.add(v):
            yield word, v
            queue.extend((word + (i,), m.apply(v)) for i, m in enumerate(maps))


def first_word_off(functional, start, maps):
    """Shortlex-least word (map indices) whose image of `start` the
    functional does not annihilate, or None if it vanishes on the closure."""
    return next((w for w, v in word_closure(start, maps) if vdot(functional, v) != 0), None)


def closure_under_maps(start, maps, ring):
    """Generators of the smallest `ring`-submodule containing `start` and
    closed under all maps.

    ring "Q": the vectors of `word_closure`, linearly independent.  ring "Z":
    the HNF basis of the closure lattice; the ascending chain of sublattices
    stabilizes, detected by an unchanged HNF.
    """
    if ring == "Q":
        return [v for _, v in word_closure(start, maps)]
    _check_square(start, maps)
    n = len(start)
    if ring == "Z":
        if not is_integral(start):
            raise ValueError("ring Z needs integral start")
        for m in maps:
            for r in m.rows:
                if not is_integral(r):
                    raise ValueError("ring Z needs integral maps")
        lat = hnf([as_int_vec(start)], dim=n) if not is_zero(start) else Lattice(n, ())
        while True:
            new_rows = list(lat.basis)
            for b in lat.basis:
                for m in maps:
                    new_rows.append(as_int_vec(m.apply(b)))
            nxt = hnf(new_rows, dim=n) if new_rows else Lattice(n, ())
            if nxt == lat:
                return [tuple(r) for r in lat.basis]
            lat = nxt
    raise ValueError(f"unknown ring {ring!r}")
