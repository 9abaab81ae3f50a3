"""The entrywise `Fraction` dot and matrix-vector products, kept as
differential test oracles, and the vector and matrix helpers only the tests
use.

`scaled_dot` and `Mat.apply_scaled` run on vectors and matrices scaled to
integers; these are the `Fraction` products they replaced, one multiply and
add per entry, zeros included, with no call into the kernel they check.

The package's vectors are scaled, (d, ints) in lowest terms
(`wazz.linalg.scaled`); the tests state most of their data as rationals,
`svec` makes one from entries given as int, `Fraction` or text, `sconcat`
joins two, and `fractions` reads one back.  `zeros`, `funit`, `vneg`,
`vscale`, `vdot` (an alias of `entrywise_dot`), `is_nonneg` and `apply`
(an alias of `entrywise_apply`) are the `Fraction` vector helpers that
left `wazz.linalg` with the `Fraction` vectors; `vector` builds one from
int, `Fraction` or text entries, and `fraction_rows` reads a matrix back
as `Fraction` rows (they were `wazz.linalg.vector` and `Mat.rows`).
`identity` and `zero` build the two constant matrices the tests use;
`from_cols`, `column`, `columns`, `transpose` and `matmul` build and read
a matrix by its columns (they were `Mat.from_cols`, `Mat.col`, `Mat.cols`,
`Mat.transpose` and `Mat.__matmul__`).  `hrep` and `vrep` build the
`wazz.polyhedra` records, whose rows are scaled, from rows of rationals,
and `ineq_pairs` reads an `HRep` back as (normal, bound) pairs of
`Fraction`s.
"""

from fractions import Fraction

from wazz.linalg import Mat, scaled
from wazz.polyhedra import HRep, VRep


def vector(entries):
    """A tuple of `Fraction`s from entries given as int, `Fraction` or text."""
    # a tuple of exact Fractions comes back as it is; Fraction entries are shared
    if type(entries) is tuple and {Fraction}.issuperset(map(type, entries)):
        return entries
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def fraction_rows(m):
    """The entries of the matrix m as a tuple of `Fraction` rows."""
    return tuple(tuple(Fraction(a, m.den) for a in row) for row in m.dense())


def svec(entries):
    """The scaled vector of rationals given as int, `Fraction` or text."""
    return scaled(vector(entries))


def sconcat(u, v):
    """The scaled vector of u followed by v."""
    return scaled(fractions(u) + fractions(v))


def fractions(v):
    """The scaled vector v = (d, ints) as a tuple of `Fraction`s."""
    den, ints = v
    return tuple(Fraction(a, den) for a in ints)


def hrep(dim, ineqs):
    """The `HRep` of (normal, bound) pairs of rationals."""
    return HRep(dim, tuple(scaled(tuple(a) + (b,)) for a, b in ineqs))


def ineq_pairs(h):
    """The inequalities of the `HRep` h as (normal, bound) pairs of `Fraction`s."""
    return tuple((row[:-1], row[-1]) for row in map(fractions, h.ineqs))


def vrep(dim, points, directions=()):
    """The `VRep` of points and directions given as rationals."""
    return VRep(dim, tuple(map(scaled, points)), tuple(map(scaled, directions)))


def zeros(n):
    return (Fraction(0),) * n


def funit(n, i):
    """The unit vector e_i as `Fraction`s (`wazz.linalg.unit` is scaled)."""
    return tuple(Fraction(int(j == i)) for j in range(n))


def vneg(v):
    return tuple(-a for a in v)


def vscale(c, v):
    return tuple(c * a for a in v)


def is_nonneg(v):
    return all(a >= 0 for a in v)


def identity(n):
    return Mat(tuple(funit(n, i) for i in range(n)), ncols=n)


def zero(nrows, ncols):
    return Mat(tuple(zeros(ncols) for _ in range(nrows)), ncols=ncols)


def entrywise_dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def entrywise_apply(m, x):
    if len(x) != m.ncols:
        raise ValueError(f"dimension mismatch: {m.ncols} cols vs vector of {len(x)}")
    return tuple(entrywise_dot(r, x) for r in fraction_rows(m))


vdot, apply = entrywise_dot, entrywise_apply


def from_cols(cols, nrows=None):
    """The matrix with the given columns of rationals."""
    cols = [vector(c) for c in cols]
    if cols:
        nrows = len(cols[0])
        if any(len(c) != nrows for c in cols):
            raise ValueError("ragged matrix")
    elif nrows is None:
        raise ValueError("empty column list needs an explicit row count")
    return Mat(tuple(zip(*cols)) if cols else ((),) * nrows, ncols=len(cols))


def column(m, j):
    return tuple(r[j] for r in fraction_rows(m))


def columns(m):
    return [column(m, j) for j in range(m.ncols)]


def matmul(a, b):
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions disagree")
    return from_cols([entrywise_apply(a, c) for c in columns(b)], nrows=a.nrows)


def transpose(m):
    # the rows of m are the columns of its transpose, on the same integers
    return Mat._of_cols(m.den, m.dense(), m.ncols)
