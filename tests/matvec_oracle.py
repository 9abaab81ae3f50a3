"""The entrywise `Fraction` dot and matrix-vector products, kept as
differential test oracles, and the matrix helpers only the tests use.

`vdot` and `Mat.apply` run on vectors and matrices scaled to integers; these
are the products they replaced, one `Fraction` multiply and add per entry,
zeros included, with no call into the kernel they check.  The tests require
equal values of equal type.  `identity` and `zero` build the two constant
matrices the tests use; `from_cols`, `column`, `columns`, `transpose` and
`matmul` build and read a matrix by its columns (they were `Mat.from_cols`,
`Mat.col`, `Mat.cols`, `Mat.transpose` and `Mat.__matmul__`).
"""

from fractions import Fraction

from wazz.linalg import Mat, unit, vector, zeros


def identity(n):
    return Mat(tuple(unit(n, i) for i in range(n)), ncols=n)


def zero(nrows, ncols):
    return Mat(tuple(zeros(ncols) for _ in range(nrows)), ncols=ncols)


def entrywise_dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def entrywise_apply(m, x):
    if len(x) != m.ncols:
        raise ValueError(f"dimension mismatch: {m.ncols} cols vs vector of {len(x)}")
    return tuple(entrywise_dot(r, x) for r in m.rows)


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
    return tuple(r[j] for r in m.rows)


def columns(m):
    return [column(m, j) for j in range(m.ncols)]


def matmul(a, b):
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions disagree")
    return from_cols([a.apply(c) for c in columns(b)], nrows=a.nrows)


def transpose(m):
    # the rows of m are the columns of its transpose, on the same integers
    return Mat._of_cols(m.den, m.dense(), m.ncols)
