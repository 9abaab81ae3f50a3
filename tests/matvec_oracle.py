"""The entrywise `Fraction` dot and matrix-vector products, kept as
differential test oracles.

`vdot` and `Mat.apply` run on vectors and matrices scaled to integers; these
are the products they replaced, one `Fraction` multiply and add per entry,
zeros included, with no call into the kernel they check.  The tests require
equal values of equal type.  `identity` and `zero` build the two constant
matrices the tests use.
"""

from fractions import Fraction

from wazz.linalg import Mat, unit, zeros


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
