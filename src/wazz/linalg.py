"""Exact rational and integer linear algebra.

The kernel runs on integers.  A vector of the pipeline is scaled: it
travels as (d, ints), standing for ints / d, with d > 0, ints a tuple of
`int` and gcd(d, *ints) == 1, so equal vectors have equal forms and compare
and hash equal.  `scaled(v)` makes that form from rationals; two scaled
vectors are compared by cross-multiplication.  It is the one vector
format: this module builds no `Fraction`.

- A `Mat` is integers only (see the class), built from int or `Fraction`
  entries.  The text readers build a letter or morphism matrix from its
  columns' integers (`_of_cols`), and coordinate selections and
  `block_diag` compose integers.  `apply_scaled((e, xs))` takes each output
  entry as one integer sum over a row's nonzeros and returns the image as
  (d * e, sums).
- Elimination (`_int_rref`, `_Echelon`) is fraction-free: a row update is
  the integer combination that clears one entry, divided by the gcd of the
  result, so rows stay primitive.  `_int_rref` is the one Gauss-Jordan loop;
  `rref`, `solve` (the one back-substitution, which the pyramid normal of
  `wazz.pca` calls), `kernel_basis`, the double description and the
  verifier's carrier factorization (`wazz.polyhedra`) read its integer rows
  over the lcm of their pivot entries.
- The word closure (`_scaled_word_closure`) queues scaled images, reduced
  to lowest terms, and builds no `Fraction`; `first_word_off`, like the
  pair closure of `wazz.automata`, tests each scaled image against a
  functional's integers.
- The Z closure (`closure_under_maps`) starts from an integral scaled
  vector and runs on `int` rows: it applies integral maps through their
  scaled forms and grows the HNF in place.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, compress
from math import gcd, lcm
from operator import mul


def unit(n, i):
    """The scaled unit vector e_i of length n."""
    return 1, tuple([int(j == i) for j in range(n)])


def is_zero(v):
    return all(a == 0 for a in v)


def is_integral(v):
    return all(isinstance(a, int) or a.denominator == 1 for a in v)


def as_int_vec(v):
    if not is_integral(v):
        raise ValueError(f"not an integer vector: {v}")
    return tuple(int(a) for a in v)


def _clear_denominators(v):
    """(d, integers d * a for each entry a of v), d being the least common
    denominator of v's entries (int or Fraction)."""
    ratios = [a.as_integer_ratio() for a in v]
    den = lcm(*[d for _, d in ratios])
    if den == 1:
        return 1, [n for n, _ in ratios]
    return den, [n * (den // d) for n, d in ratios]


def _lowest_terms(v):
    """The scaled vector of v = (d > 0, integers): both divided by their gcd."""
    den, ints = v
    g = gcd(den, *ints)
    return (den, tuple(ints)) if g == 1 else (den // g, tuple([a // g for a in ints]))


def scaled(v):
    """The scaled vector of the rationals v (int or Fraction): the one constructor."""
    return _lowest_terms(_clear_denominators(v))


def _concat(u, v):
    """The scaled vector of u followed by v; lowest terms, as u and v are: a
    prime dividing lcm(d_u, d_v) to its full power divides d_u or d_v so, and
    then not every integer of that side."""
    (du, us), (dv, vs) = u, v
    den = lcm(du, dv)
    su, sv = den // du, den // dv
    return den, tuple([a * su for a in us] + [a * sv for a in vs])


def scaled_dot(u, v):
    """<u, v> of two scaled vectors as an integer ratio (num, den), den > 0."""
    return sum(map(mul, u[1], v[1])), u[0] * v[0]


def scaled_equal(u, v):
    """Whether two scaled vectors (d, ints) of one length stand for the same
    vector, by cross-multiplication."""
    (u_den, us), (v_den, vs) = u, v
    return all(a * v_den == b * u_den for a, b in zip(us, vs))


def primitive(v, flip_sign=False):
    """Scale a rational vector to coprime integers.

    Scaling is by a positive rational, so the direction is kept; with
    `flip_sign` the first nonzero entry is additionally made positive
    (canonical form for basis vectors, not for rays).
    """
    ints = _clear_denominators(v)[1]
    g = gcd(*ints)
    if g == 0:
        return tuple(ints)
    if flip_sign and next(a for a in ints if a) < 0:
        g = -g
    return tuple(a // g for a in ints)


def _eliminate(v, row, p):
    """The primitive integer vector along row[p] * v - v[p] * row, whose entry
    p is 0; a positive multiple of v - (v[p] / row[p]) * row when row[p] > 0."""
    d, f = row[p], v[p]
    g = gcd(d, f)
    d //= g
    f //= g
    w = [d * a - f * b for a, b in zip(v, row)]
    g = gcd(*w)
    return [a // g for a in w] if g > 1 else w


class Mat:
    """Exact-rational matrix held as integers: one common denominator `den`
    and, per row, the column indices of its nonzero entries with the
    integers den * entry there (`sparse`).  The form is canonical, den being
    coprime to those integers (1 for an integer matrix), so that `==`,
    `hash` and `scaled` agree however a matrix was built."""

    __slots__ = ("ncols", "den", "sparse")

    def __init__(self, rows, ncols=None):
        """The matrix with the given rows of int or Fraction entries."""
        rows = [list(r) for r in rows]
        width = len(rows[0]) if rows else ncols
        if width is None:
            raise ValueError("empty matrix needs an explicit column count")
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        if ncols not in (None, width):
            raise ValueError("ncols disagrees with row width")
        den, ints = _clear_denominators([a for r in rows for a in r])
        m = Mat._of_cols(den, [ints[j::width] for j in range(width)], len(rows))
        self.ncols, self.den, self.sparse = m.ncols, m.den, m.sparse

    @classmethod
    def _of_cols(cls, den, cols, nrows):
        """The matrix with columns cols / den, cols being nrows integers each
        and den > 0; den and the integers are divided by their gcd."""
        g = gcd(den, *chain.from_iterable(cols)) if den > 1 else 1
        if g > 1:
            den //= g
            cols = [[a // g for a in col] for col in cols]
        m = object.__new__(cls)
        m.ncols, m.den = len(cols), den
        index = range(len(cols))
        m.sparse = tuple([(tuple(compress(index, row)), tuple(filter(None, row)))
                          for row in zip(*cols)]) if cols else (((), ()),) * nrows
        return m

    @property
    def nrows(self):
        return len(self.sparse)

    def dense(self):
        """The rows as lists of the integers den * entry, zeros included."""
        out = [[0] * self.ncols for _ in self.sparse]
        for row, (cols, nums) in zip(out, self.sparse):
            for j, a in zip(cols, nums):
                row[j] = a
        return out

    def scaled(self):
        """(den, sparse), the form every product reads."""
        return self.den, self.sparse

    def apply_scaled(self, x):
        """Matrix times the scaled column vector x = (e, xs), as the scaled
        vector (den * e, one integer sum per row)."""
        return _sparse_apply(self.den, self.sparse, self.ncols, x)

    @staticmethod
    def block_diag(a, b):
        """The block-diagonal matrix with blocks a and b, over lcm(d_a, d_b),
        b's column indices shifted past a's; canonical, as the blocks are."""
        n1, den = a.ncols, lcm(a.den, b.den)
        s1, s2 = den // a.den, den // b.den
        m = object.__new__(Mat)
        m.ncols, m.den = n1 + b.ncols, den
        m.sparse = tuple(
            [(cols, nums if s1 == 1 else tuple([s1 * x for x in nums])) for cols, nums in a.sparse]
            + [(tuple([n1 + j for j in cols]), nums if s2 == 1 else tuple([s2 * x for x in nums]))
               for cols, nums in b.sparse])
        return m

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.ncols == other.ncols and self.den == other.den
                and self.sparse == other.sparse)

    def __hash__(self):
        return hash((self.ncols, self.den, self.sparse))

    def __repr__(self):
        return f"Mat({self.dense()} / {self.den})"


def _selection(keep, n):
    """The matrix with rows e_j (length n), j in keep: it keeps those coordinates."""
    return Mat._of_cols(1, [[int(i == j) for i in keep] for j in range(n)], len(keep))


def _sparse_apply(den, rows, ncols, x):
    """The matrix given by its scaled form (den, rows), rows as in
    `Mat.scaled`, times the scaled vector x = (e, xs): the scaled vector
    (den * e, one integer sum per row)."""
    x_den, xs = x
    if len(xs) != ncols:
        raise ValueError(f"dimension mismatch: {ncols} cols vs vector of {len(xs)}")
    pick = xs.__getitem__
    return den * x_den, [sum(map(mul, nums, map(pick, cols))) for cols, nums in rows]


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
    """Reduced row echelon form: returns (R, pivot columns, rank).

    `_int_rref` on the rows scaled to primitive integers, each pivot row then
    divided by its pivot entry, over the lcm of those entries; R, its pivots
    and its rank are unique, so they are those of the rational elimination."""
    rows = [primitive(r) for r in m.dense()]
    pivots = _int_rref(rows, m.ncols)
    den, scales = _pivot_scales(rows, pivots)
    zeros = [0] * (m.nrows - len(pivots))
    cols = [[row[j] * s for row, s in zip(rows, scales)] + zeros for j in range(m.ncols)]
    return Mat._of_cols(den, cols, m.nrows), tuple(pivots), len(pivots)


def _pivot_scales(rows, pivots):
    """(L, L / its pivot entry per pivot row of `_int_rref`), L their lcm."""
    den = lcm(*(row[p] for row, p in zip(rows, pivots)))
    return den, [den // row[p] for row, p in zip(rows, pivots)]


def _rref_beside_identity(cols, nrows, d=1):
    """(pivot columns, rows) of one `_int_rref` of [G | d I], G having the
    integer columns cols of length nrows, with the pivots sought in G's
    columns only and the identity block carried along: the rows read
    [R | d E] with E G = R, R being G's rref up to a nonzero factor per row,
    and E invertible.  The rows from G's rank on read [0 | d E'], unreduced,
    and E' is a basis of the equations of G's column span."""
    rows = [list(r) + [0] * nrows for r in zip(*cols)] or [[0] * nrows for _ in range(nrows)]
    for j, row in enumerate(rows, len(cols)):
        row[j] = d
    return _int_rref(rows, len(cols)), rows


def _kernel_vectors(rows, pivots, ncols):
    """Basis of the kernel of rows that `_int_rref` left with the given pivots:
    per non-pivot column c, the vector with L at c and -rows[i][c] L / rows[i][p_i]
    at each pivot p_i, L being the lcm of the pivot entries, made primitive
    with its first nonzero entry positive."""
    den, scales = _pivot_scales(rows, pivots)
    basis = []
    for c in range(ncols):
        if c not in pivots:
            v = [0] * ncols
            v[c] = den
            for row, p, s in zip(rows, pivots, scales):
                v[p] = -row[c] * s
            basis.append(primitive(v, flip_sign=True))
    return basis


def kernel_basis(m):
    """Basis of {x : Mx = 0}, one primitive integer tuple per free column."""
    rows = [primitive(r) for r in m.dense()]
    return _kernel_vectors(rows, _int_rref(rows, m.ncols), m.ncols)


def solve(m, b):
    """The scaled x with Mx = b for the scaled b, free variables zero, or
    None: one `_int_rref` of [e M | d b] over gcd(d, e), M = ints / d and
    b = bs / e; x_p is the last entry of p's pivot row over its pivot entry."""
    (e, bs), n = b, m.ncols
    if len(bs) != m.nrows:
        raise ValueError("right-hand side has wrong length")
    e, d = e // gcd(e, m.den), m.den // gcd(e, m.den)  # keeps the entries small
    rows = [[e * a for a in row] + [d * c] for row, c in zip(m.dense(), bs)]
    pivots = _int_rref(rows, n + 1)
    if pivots and pivots[-1] == n:
        return None
    den, scales = _pivot_scales(rows, pivots)
    x = [0] * n
    for row, p, s in zip(rows, pivots, scales):
        x[p] = row[n] * s
    return _lowest_terms((den, x))


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


def _hnf_reduce(v, basis):
    """Canonical representative of the integer vector v modulo the lattice
    of the HNF rows `basis`: zero exactly when v lies in it."""
    for row in basis:
        p = next(j for j, a in enumerate(row) if a)
        q = v[p] // row[p]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return v


def lattice_reduce(v, lattice):
    """Canonical representative of v modulo the lattice (HNF reduction)."""
    return tuple(_hnf_reduce(as_int_vec(v), lattice.basis))


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
    """Incremental echelon form used to test membership in a Q-span, on
    primitive integer rows with positive pivots.  Vectors come in scaled to
    integers (a positive scale changes no span)."""

    def __init__(self):
        self.rows = []  # (pivot index, primitive integer row, row[pivot] > 0)

    def residue(self, ints):
        """A positive multiple of ints minus its reduction against the rows,
        eliminated fraction-free."""
        for p, row in self.rows:
            if ints[p]:
                ints = _eliminate(ints, row, p)
        return ints

    def add(self, ints):
        """Insert ints; returns False if it was already in the span."""
        res = self.residue(ints)
        p = next((i for i, a in enumerate(res) if a), None)
        if p is None:
            return False
        g = gcd(*res)
        if res[p] < 0:
            g = -g
        self.rows.append((p, [a // g for a in res]))
        return True


def _check_square(n, maps):
    if any(m.nrows != n or m.ncols != n for m in maps):
        raise ValueError("maps must be square of matching dimension")


def _scaled_word_closure(start, maps):
    """Q-basis of the closure of the scaled vector `start` under all maps,
    breadth first: yields (word, (d, ints)), the map indices (first applied
    first) that send `start` to ints / d, in lowest terms.  Words come in
    shortlex order and span(images of words <= w) = span(basis vectors of
    words <= w), so the first basis vector a functional does not annihilate
    has the shortlex-least word on which it is nonzero."""
    _check_square(len(start[1]), maps)
    ech = _Echelon()
    queue = deque([((), start)])
    while queue:
        word, v = queue.popleft()
        if ech.add(v[1]):
            yield word, v
            queue.extend((word + (i,), _lowest_terms(m.apply_scaled(v)))
                         for i, m in enumerate(maps))


def first_word_off(functional, start, maps):
    """Shortlex-least word (map indices) whose image of the scaled `start`
    the integer functional does not annihilate, or None if it vanishes on
    the closure.  A positive scale changes no sign of a sum."""
    for word, (_, xs) in _scaled_word_closure(start, maps):
        if len(xs) != len(functional):
            raise ValueError(f"dimension mismatch: {len(functional)} vs {len(xs)}")
        if sum(map(mul, functional, xs)):
            return word
    return None


def closure_under_maps(start, maps):
    """HNF basis of the smallest lattice (Z-submodule) containing the
    integral scaled `start` and closed under the integral maps.

    The lattice is grown from a worklist: the maps go only to vectors that
    enlarged the lattice, and an image outside the current lattice enlarges
    it.  The result is generated by vectors whose images all lie in it, so
    it is closed, and its HNF basis is unique.  (Over Q the closure is the
    span of `_scaled_word_closure`'s vectors.)

    Everything runs on `int` rows: an integral map's scaled form has d = 1,
    so its integers are its entries and an image is one integer sum per row;
    an image is reduced against the HNF rows, and one that does not vanish
    joins them and `_hnf_rows` restores the normal form in place.
    """
    n = len(start[1])
    _check_square(n, maps)
    if start[0] != 1:
        raise ValueError("lattice closure needs integral start")
    forms = [m.scaled() for m in maps]
    if any(den != 1 for den, _ in forms):
        raise ValueError("lattice closure needs integral maps")
    start = start[1]
    if not any(start):
        return []
    basis = [list(start)]
    _hnf_rows(basis)
    work = deque([start])
    while work:
        v = work.popleft()
        for _, rows in forms:
            w = _sparse_apply(1, rows, n, (1, v))[1]
            if any(_hnf_reduce(w, basis)):
                basis.append(w)
                del basis[_hnf_rows(basis):]
                work.append(w)
    return [tuple(r) for r in basis]
