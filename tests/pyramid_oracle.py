"""The `Fraction` routes of the pyramid extension, kept as differential
oracles.

`wazz.pca.pyramid_extension` solves (I - N) u = out by one fraction-free
elimination of integer rows, reads the signs of the letters on their scaled
integers and tests containment with one integer dot product per generator;
`wazz.pca.invariant_zero_set` compares per-column supports.  These are the
routes they replaced: the `Fraction` Gauss-Jordan `solve` (now
`kernel_oracle.solve`, through its `rref` and `Mat`) and the column scan by
`Fraction` comparison.  The tests require an equal certificate, with equal
values of equal type, and the same error with the same message.
"""

from fractions import Fraction

from wazz.linalg import Mat, scaled
from wazz.pca import InvariantZeroSet, PyramidCert
from wazz.polyhedra import InternalError

from matvec_oracle import column, fraction_rows, fractions, funit, vdot

from kernel_oracle import solve


def is_nonneg(v):
    return all(a >= 0 for a in v)


def invariant_zero_set(out, trans):
    out = fractions(out)
    n = len(out)
    current = {j for j in range(n) if out[j] == 0}
    while True:
        nxt = {j for j in current
               if all(all(column(m, j)[i] == 0 or i in current for i in range(n))
                      for m in trans)}
        if nxt == current:
            return current
        current = nxt


def pyramid_extension(polytope, coalg):
    n = polytope.dim
    if coalg.n != n:
        raise ValueError("dimension mismatch")
    out = fractions(coalg.out)
    if not is_nonneg(out) or not all(is_nonneg(r) for m in coalg.trans for r in fraction_rows(m)):
        raise ValueError("output and letter entries must be nonnegative")
    bad = invariant_zero_set(coalg.out, coalg.trans)
    if bad:
        raise InvariantZeroSet(bad)
    # row j of I - N is e_j minus the sum over letters of column j of M_a
    rows = []
    for j in range(n):
        row = list(funit(n, j))
        for m in coalg.trans:
            for i, c in enumerate(column(m, j)):
                row[i] -= c
        rows.append(row)
    u = solve(Mat(rows, ncols=n), out)
    if u is None:
        raise InternalError("fixed-point system infeasible: (I - N) u = out has no solution")
    if any(q <= 0 for q in u):
        raise InternalError("fixed point with a nonpositive coordinate")
    if any(vdot(fractions(g), u) > 1 for g in polytope.generators):
        raise InternalError("fixed point puts a carrier generator outside the pyramid")
    gens = tuple(scaled([Fraction(1, 1) / u[j] if i == j else 0 for i in range(n)])
                 for j in range(n))
    return PyramidCert(u=scaled(u), generators=gens)
