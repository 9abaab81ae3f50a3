"""Exact rational and integer linear algebra.

The kernel runs on integers.  A vector of the pipeline is scaled: it
travels as (d, ints), standing for ints / d, with d > 0, ints a tuple of
`int` and gcd(d, *ints) == 1, so equal vectors have equal forms and compare
and hash equal.  `scaled(v)` makes that form from rationals; two scaled
vectors are compared by cross-multiplication.  It is the one vector
format: this module builds no `Fraction`.

- A `Mat` is integers only (see the class), built from int or `Fraction`
  entries.  The text readers build a letter or morphism matrix from its
  columns' integers (`_of_cols`), other producers from rows (`_of_rows`),
  and coordinate selections, `block_diag` and `block_diag_transposed`
  compose integers.  `apply_scaled((e, xs))` takes each output entry as one
  integer sum over a row's nonzeros and returns the image as (d * e, sums).
- Elimination is fraction-free: a row update is the integer combination
  that clears one entry, divided by the gcd of the result, so rows stay
  primitive.  Every reduced row echelon form grows an `_Echelon`, one
  insertion per row, read by one back-substitution (`_Echelon.reduced`):
  `rref`, `solve` (which the pyramid normal of `wazz.pca` calls),
  `kernel_basis`, the double description and the verifier's carrier
  factorization (`wazz.polyhedra`) read its rows over the lcm of the pivots.
- Every Hermite normal form (see `Lattice`) grows in an `_Hnf`, one
  insertion step per vector, and `_pivot_coords` is the one solve for
  coordinates in its rows.
- The word closure (`_word_closure`) is one breadth-first loop for both
  rings: it tests each scaled image, reduced to lowest terms, against a
  span as it is made, an `_Echelon` over Q and an `_Hnf` over Z, and yields
  each vector that enlarged it with its word.  It builds no `Fraction`, and
  the caller reads the span's rows, so that no caller eliminates its images
  again.  The lattice closure (`closure_under_maps`) runs it to the end from
  an integral start under integral maps, and `least_word_off` reads a word
  of known length off the functionals of a closure under the transposed
  maps.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress
from math import gcd, lcm
from operator import itemgetter, mul


def unit(n, i):
    """The scaled unit vector e_i of length n, 0 <= i < n."""
    return 1, (0,) * i + (1,) + (0,) * (n - i - 1)


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
    ints = v if all(type(a) is int for a in v) else _clear_denominators(v)[1]
    g = gcd(*ints)
    if g == 0:
        return tuple(ints)
    if flip_sign and next(a for a in ints if a) < 0:
        g = -g
    return tuple(ints) if g == 1 else tuple([a // g for a in ints])


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
    def _of_rows(cls, den, rows, ncols):
        """The matrix with rows rows / den, rows being ncols integers each and
        den > 0; den and the integers are divided by their gcd."""
        g = gcd(den, *chain.from_iterable(rows)) if den > 1 else 1
        if g > 1:
            den //= g
            rows = [[a // g for a in row] for row in rows]
        m = object.__new__(cls)
        m.ncols, m.den = ncols, den
        index = range(ncols)
        m.sparse = tuple([(tuple(compress(index, row)), tuple(filter(None, row)))
                          for row in rows])
        return m

    @classmethod
    def _of_cols(cls, den, cols, nrows):
        """The matrix with columns cols / den, cols being nrows integers each
        and den > 0; den and the integers are divided by their gcd."""
        return cls._of_rows(den, list(zip(*cols)) if cols else [()] * nrows, len(cols))

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

    @staticmethod
    def block_diag_transposed(a, b):
        """The transpose of `block_diag(a, b)`, built in one pass: row j holds
        column j's integers, b's rows shifted past a's columns and b's
        columns past a's rows."""
        den, n1, m1 = lcm(a.den, b.den), a.ncols, len(a.sparse)
        cols = [([], []) for _ in range(n1 + b.ncols)]
        for (col_shift, row_shift), m in (((0, 0), a), ((n1, m1), b)):
            s = den // m.den
            for i, (js, nums) in enumerate(m.sparse, row_shift):
                for j, x in zip(js, nums):
                    col = cols[col_shift + j]
                    col[0].append(i)
                    col[1].append(x * s)
        m = object.__new__(Mat)
        m.ncols, m.den = m1 + len(b.sparse), den
        m.sparse = tuple([(tuple(js), tuple(nums)) for js, nums in cols])
        return m

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.ncols == other.ncols and self.den == other.den
                and self.sparse == other.sparse)

    def __hash__(self):
        return hash((self.ncols, self.den, self.sparse))

    def __repr__(self):
        return f"Mat({self.dense()} / {self.den})"


def _selection(keep, n):
    """The matrix with rows e_j (length n), j in keep: it keeps those
    coordinates.  Its sparse rows are written directly, one entry each."""
    m = object.__new__(Mat)
    m.ncols, m.den = n, 1
    m.sparse = tuple([((j,), (1,)) for j in keep])
    return m


def _sparse_apply(den, rows, ncols, x):
    """The matrix given by its scaled form (den, rows), rows as in
    `Mat.scaled`, times the scaled vector x = (e, xs): the scaled vector
    (den * e, one integer sum per row)."""
    x_den, xs = x
    if len(xs) != ncols:
        raise ValueError(f"dimension mismatch: {ncols} cols vs vector of {len(xs)}")
    pick = xs.__getitem__
    return den * x_den, [sum(map(mul, nums, map(pick, cols))) for cols, nums in rows]


def _reduced(rows):
    """`_Echelon.reduced` of a fresh `_Echelon` holding the integer rows."""
    span = _Echelon()
    for row in rows:
        span.add(row)
    return span.reduced()


def rref(m):
    """Reduced row echelon form: returns (R, pivot columns, rank).

    `_reduced` of the integer rows, each pivot row then divided by its pivot
    entry, over the lcm of those entries; R, its pivots and its rank are
    unique, so they are those of the rational elimination."""
    pivots, rows = _reduced(m.dense())
    den, scales = _pivot_scales(rows, pivots)
    zeros = [0] * (m.nrows - len(pivots))
    cols = [[row[j] * s for row, s in zip(rows, scales)] + zeros for j in range(m.ncols)]
    return Mat._of_cols(den, cols, m.nrows), tuple(pivots), len(pivots)


def _pivot_scales(rows, pivots):
    """(L, L / its pivot entry per pivot row), L the lcm of those entries."""
    den = lcm(*(row[p] for row, p in zip(rows, pivots)))
    return den, [den // row[p] for row, p in zip(rows, pivots)]


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


def _kernel_vectors(rows, pivots, ncols):
    """Basis of the kernel of reduced echelon rows with the given pivots:
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
    pivots, rows = _reduced(m.dense())
    return _kernel_vectors(rows, pivots, m.ncols)


def solve(d, ints, b, n):
    """The scaled x with Mx = b for M = ints / d, ints being rows of n
    integers and d > 0, and the scaled b, free variables zero, or None: the
    `_reduced` rows of [e ints | d bs] over gcd(d, e), b = bs / e; x_p is
    the last entry of p's pivot row over its pivot entry."""
    e, bs = b
    if len(bs) != len(ints):
        raise ValueError("right-hand side has wrong length")
    e, d = e // gcd(e, d), d // gcd(e, d)  # keeps the entries small
    pivots, rows = _reduced([[e * a for a in row] + [d * c] for row, c in zip(ints, bs)])
    if pivots and pivots[-1] == n:
        return None
    den, scales = _pivot_scales(rows, pivots)
    x = [0] * n
    for row, p, s in zip(rows, pivots, scales):
        x[p] = row[n] * s
    return _lowest_terms((den, x))


@dataclass(frozen=True)
class Lattice:
    """Subgroup of Z^dim given by its basis in row-style Hermite normal form,
    the one HNF convention of the package: each row's first nonzero entry
    (its pivot) is positive and right of the row above's, and every entry
    above a pivot lies in [0, pivot).  Equal lattices have equal bases."""

    dim: int
    basis: tuple

    @property
    def rank(self):
        return len(self.basis)


def _pivot(row):
    """The column of the first nonzero entry of a nonzero row."""
    return next(j for j, a in enumerate(row) if a)


def hnf(rows, dim=None):
    """Lattice spanned by integer rows, its basis in Hermite normal form:
    the rows added one by one to an `_Hnf`."""
    if dim is None:
        if not rows:
            raise ValueError("empty generating set needs an explicit dimension")
        dim = len(rows[0])
    span = _Hnf()
    for r in rows:
        if len(r) != dim:
            raise ValueError("dimension mismatch in generating set")
        span.add(as_int_vec(r))
    return Lattice(dim, tuple(map(tuple, span.rows)))


def hnf_with_transform(rows, dim):
    """HNF plus a unimodular transform: U * rows_matrix = [H; 0].

    Returns (lattice, transform_rows, rank) where the first `rank` transform
    rows express the HNF basis as integer combinations of the input rows and
    the remaining ones are the HNF basis of the left kernel of the input
    matrix.  They are the HNF rows of [W | I], W the input, split at the
    first pivot in I; the rows below `rank` are zero on W and so stay in
    HNF on their own (Cohen 1993, §2.4).
    """
    k = len(rows)
    full = hnf([tuple(r) + unit(k, i)[1] for i, r in enumerate(rows)], dim + k).basis
    rank = sum(1 for r in full if any(r[:dim]))
    return Lattice(dim, tuple(r[:dim] for r in full[:rank])), [r[dim:] for r in full], rank


def _hnf_reduce(v, basis):
    """Canonical representative of the integer vector v modulo the lattice
    of the HNF rows `basis`: zero exactly when v lies in it."""
    for row in basis:
        p = _pivot(row)
        q = v[p] // row[p]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return v


def lattice_reduce(v, lattice):
    """Canonical representative of v modulo the lattice (HNF reduction)."""
    return tuple(_hnf_reduce(as_int_vec(v), lattice.basis))


def lattice_member(v, lattice):
    return is_integral(v) and not any(lattice_reduce(v, lattice))


def _pivot_coords(w, basis, pivots):
    """The integer coordinates c in the HNF rows `basis`, with pivot columns
    `pivots`, of a lattice vector whose entries at those columns are w: row
    l is zero at the pivots before its own, so c_i = (w_i - sum_(l < i) c_l
    basis[l][p_i]) / basis[i][p_i], an exact division."""
    coords = []
    for i, p in enumerate(pivots):
        coords.append((w[i] - sum(map(mul, coords, [b[p] for b in basis[:i]]))) // basis[i][p])
    return tuple(coords)


class _Echelon:
    """Incremental echelon form of a Q-span on primitive integer rows with
    positive pivots, for membership as vectors come in scaled to integers (a
    positive scale changes no span) and, by `reduced`, for its rref."""

    def __init__(self):
        self.rows = []  # (pivot column p, primitive integer row with row[p] > 0)

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

    def reduced(self):
        """(pivots in ascending order, rows): the rref, each row primitive,
        positive at its pivot and zero at every other.  Sorted by pivot, the
        rows are an echelon form; one back-substitution from the bottom row
        up clears each row at the pivots below it with the rows there."""
        ordered = sorted(self.rows, key=itemgetter(0))
        pivots, rows = [p for p, _ in ordered], [row for _, row in ordered]
        for i in range(len(rows) - 2, -1, -1):
            row = rows[i]
            for p, below in zip(pivots[i + 1:], rows[i + 1:]):
                if row[p]:
                    row = _eliminate(row, below, p)
            rows[i] = row
        return pivots, rows


class _Hnf:
    """Incremental Hermite normal form (see `Lattice`) used to test
    membership in a lattice, with `_Echelon`'s `add`: `rows` are the HNF
    rows of the integer vectors added so far, `pivots` their pivots."""

    def __init__(self):
        self.rows, self.pivots = [], []

    def add(self, ints):
        """Insert ints; returns False if it was already in the lattice.  An
        ints outside, reduced against the rows, is merged in pivot by pivot:
        at a row with its pivot, a unimodular extended-gcd step leaves the
        row the gcd of the two pivot entries and the vector a 0 there; at
        none, the vector joins the rows and the merge ends.  Then each entry
        above a pivot, from the first changed row on, goes into [0, pivot)."""
        v = _hnf_reduce(ints, self.rows)
        if not any(v):
            return False
        rows, pivots = self.rows, self.pivots
        first = i = bisect_left(pivots, _pivot(v))
        while any(v):
            p = _pivot(v)
            i = bisect_left(pivots, p, i)
            if i == len(rows) or pivots[i] != p:
                rows.insert(i, [-a for a in v] if v[p] < 0 else list(v))
                pivots.insert(i, p)
                break
            row, a, b = rows[i], rows[i][p], v[p]
            g = gcd(a, b)
            x = pow(a // g, -1, abs(b) // g)  # x a = g modulo b
            y = (g - x * a) // b
            rows[i] = [x * s + y * t for s, t in zip(row, v)]
            v = [b // g * s - a // g * t for s, t in zip(row, v)]
        for i in range(first, len(rows)):
            row, p = rows[i], pivots[i]
            for j in range(i):
                q = rows[j][p] // row[p]
                if q:
                    rows[j] = [s - q * t for s, t in zip(rows[j], row)]
        return True

    def reduced(self):
        """(pivots, rows) as `_Echelon.reduced` gives them: the HNF rows as they are."""
        return self.pivots, self.rows


def _word_closure(start, maps, span):
    """The closure of the scaled vector `start` under all maps, breadth
    first, in the span `span` (an empty `_Echelon` over Q, an empty `_Hnf`
    over Z): yields (word, (d, ints)) for each vector that enlarged it, the
    map indices (first applied first) that send `start` to ints / d, in
    lowest terms.  Each image is tested as it is made, and the maps go only
    to vectors that enlarged the span.

    Words come in shortlex order, and the image of every word w lies in the
    span of the vectors yielded with words <= w (over Z, in their lattice):
    the image of a word that was not yielded lies in the span of those
    before it, and so do its images.  So the first yielded vector that a
    functional does not annihilate has the shortlex-least word on which it
    is nonzero.  Over Q `span.rows` are then the echelon rows of the
    closure, and over Z the HNF rows of its lattice."""
    if not span.add(start[1]):
        return
    yield (), start
    work = deque([((), start)])
    while work:
        word, v = work.popleft()
        for i, m in enumerate(maps):
            w = _lowest_terms(m.apply_scaled(v))
            if span.add(w[1]):
                yield word + (i,), w
                work.append((word + (i,), w))


def least_word_off(length, functionals, levels, start, maps):
    """The shortlex-least word (map indices) of the given length whose image
    of the scaled `start` some integer functional of `functionals` does not
    annihilate, given that no shorter word has such an image.  functionals[i]
    is the functional of a word of length levels[i], as the word closure of
    the functionals under the transposed maps yields them.

    Greedy: each letter is the least one after which some word of the
    remaining length r does not annihilate the image.  The functionals of
    level at most r span those of all words of length at most r, and the
    shorter ones annihilate the image, as no shorter word separates; so that
    holds exactly when a functional of level r does not annihilate it."""
    word = []
    for rest in range(length - 1, -1, -1):
        live = [f for f, level in zip(functionals, levels) if level == rest]
        for i, m in enumerate(maps):
            image = m.apply_scaled(start)
            if any(sum(map(mul, f, image[1])) for f in live):
                word.append(i)
                start = _lowest_terms(image)
                break
    return tuple(word)


def closure_under_maps(start, maps):
    """HNF basis of the smallest lattice (Z-submodule) containing the
    integral scaled `start` and closed under the integral maps: the
    `_word_closure` of start in an `_Hnf`, run to the end.

    The result is generated by vectors whose images all lie in it, so it is
    closed, and its HNF basis is unique.  An integral map's scaled form has
    d = 1, so its integers are its entries, and everything runs on `int`
    rows."""
    n = len(start[1])
    if any(m.nrows != n or m.ncols != n for m in maps):
        raise ValueError("maps must be square of matching dimension")
    if start[0] != 1:
        raise ValueError("lattice closure needs integral start")
    if any(m.den != 1 for m in maps):
        raise ValueError("lattice closure needs integral maps")
    span = _Hnf()
    for _ in _word_closure(start, maps, span):
        pass
    return [tuple(r) for r in span.rows]
