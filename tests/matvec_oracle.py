"""The entrywise `Fraction` matrix-vector product, kept as a differential
test oracle.

`Mat.apply` runs on a cached scaled-integer form of the rows; this is the
product it replaced, one `Fraction` multiply and add per entry, zeros
included.  The tests require equal values of equal type.
"""

from wazz.linalg import vdot


def entrywise_apply(m, x):
    if len(x) != m.ncols:
        raise ValueError(f"dimension mismatch: {m.ncols} cols vs vector of {len(x)}")
    return tuple(vdot(r, x) for r in m.rows)
