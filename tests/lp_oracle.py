"""Fourier-Motzkin LP feasibility, the exact LP that `pyramid_extension`
solved before it became one linear solve.

Kept unchanged as a differential oracle: its lexicographic minimum of the
fixed-point system must equal the pyramid normal, and it decides the
feasibility programs the membership tests write out.
"""

from fractions import Fraction

from wazz.linalg import is_zero, primitive, vector
from wazz.polyhedra import HRep

from matvec_oracle import column, fractions, funit, vdot, zeros


def canonical_ineq(normal, bound):
    """Scale an inequality by a positive rational to coprime integers."""
    scaled = primitive(tuple(normal) + (bound,))
    return (vector(scaled[:-1]), Fraction(scaled[-1]))


def _clean_system(ineqs):
    """Canonicalize, drop trivial rows; returns None on a visible 0 <= -c."""
    seen = []
    seen_set = set()
    for a, b in ineqs:
        if is_zero(a):
            if b < 0:
                return None
            continue
        a, b = canonical_ineq(a, b)
        key = (a, b)
        if key not in seen_set:
            seen_set.add(key)
            seen.append(key)
    return seen


def _eliminate_last(ineqs, nvars):
    """Project out variable nvars-1; returns the reduced system or None."""
    lowers, uppers, rest = [], [], []
    for a, b in ineqs:
        c = a[nvars - 1]
        if c > 0:
            uppers.append((a, b))
        elif c < 0:
            lowers.append((a, b))
        else:
            rest.append((a[:-1], b))
    out = list(rest)
    for al, bl in lowers:
        cl = al[nvars - 1]
        for au, bu in uppers:
            cu = au[nvars - 1]
            normal = tuple(cu * x - cl * y for x, y in zip(al[:-1], au[:-1]))
            bound = cu * bl - cl * bu
            out.append((normal, bound))
    return _clean_system(out)


def _interval(ineqs, nvars, prefix):
    """Bounds for variable nvars-1 after substituting the prefix values."""
    lo, hi = None, None
    for a, b in ineqs:
        c = a[nvars - 1]
        rest = vdot(a[:-1], prefix)
        if c == 0:
            if rest > b:
                return None
            continue
        bound = (b - rest) / c
        if c > 0:
            hi = bound if hi is None else min(hi, bound)
        else:
            lo = bound if lo is None else max(lo, bound)
    return lo, hi


def lp_feasible(h):
    """A rational point satisfying the system, or None.

    Variables are eliminated from the last index down and chosen back in
    lexicographic order, taking the lower bound when finite; on bounded
    regions this lands on the lexicographic minimum, a vertex.
    """
    system = _clean_system(h.ineqs)
    if system is None:
        return None
    if h.dim == 0:
        return ()
    levels = [system]
    for nvars in range(h.dim, 1, -1):
        system = _eliminate_last(system, nvars)
        if system is None:
            return None
        levels.append(system)
    values = []
    for nvars in range(1, h.dim + 1):
        bounds = _interval(levels[h.dim - nvars], nvars, tuple(values))
        if bounds is None:
            return None
        lo, hi = bounds
        if lo is not None and hi is not None and lo > hi:
            return None
        if lo is not None:
            x = lo
        elif hi is not None:
            x = hi
        else:
            x = Fraction(0)
        values.append(x)
    return vector(values)


def pyramid_normal(polytope, coalg):
    """The pyramid normal as `pyramid_extension` found it before: the point
    Fourier-Motzkin returns for the fixed-point system, or None."""
    n = polytope.dim
    ineqs = []
    for j in range(n):
        ineqs.append((tuple(-q for q in funit(n, j)), Fraction(0)))
    for g in polytope.generators:
        ineqs.append((fractions(g), Fraction(1)))
    for j in range(n):
        total = zeros(n)
        for m in coalg.trans:
            total = tuple(t + c for t, c in zip(total, column(m, j)))
        normal = tuple(t - u for t, u in zip(total, funit(n, j)))
        ineqs.append((normal, -fractions(coalg.out)[j]))
    return lp_feasible(HRep(n, tuple(ineqs)))
