"""The entrywise `Fraction` dot and matrix-vector products, kept as
differential test oracles.

`vdot` and `Mat.apply` run on vectors and matrices scaled to integers; these
are the products they replaced, one `Fraction` multiply and add per entry,
zeros included, with no call into the kernel they check.  The tests require
equal values of equal type.
"""

from fractions import Fraction


def entrywise_dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def entrywise_apply(m, x):
    if len(x) != m.ncols:
        raise ValueError(f"dimension mismatch: {m.ncols} cols vs vector of {len(x)}")
    return tuple(entrywise_dot(r, x) for r in m.rows)
