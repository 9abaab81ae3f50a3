"""Brute-force Hilbert bases by box enumeration, kept as a differential
oracle for `wazz.hilbert.hilbert_basis`."""

from itertools import product

from wazz.hilbert import graded_lex_key
from wazz.linalg import Lattice, hnf, lattice_reduce


def hilbert_bruteforce_oracle(spec, box):
    """Minimal cone points with coordinates in [-box, box].

    Lines found inside the box are canonicalized to +/- pairs of the lattice
    they generate, and the remaining points are compared modulo that lattice.
    Agrees with hilbert_basis whenever the true basis fits in the box.
    """
    if box < 1:
        raise ValueError("box must be >= 1")
    pts = [p for p in product(range(-box, box + 1), repeat=spec.k)
           if any(p) and spec.contains(p)]
    units = [p for p in pts if spec.contains(tuple(-a for a in p))]
    line_lat = hnf(units, dim=spec.k) if units else Lattice(spec.k, ())
    out = []
    for u in line_lat.basis:
        out.append(tuple(u))
        out.append(tuple(-a for a in u))
    reduced = sorted({lattice_reduce(p, line_lat) for p in pts}, key=graded_lex_key)
    reduced = [p for p in reduced if any(p)]
    for v in reduced:
        dominated = False
        for u in reduced:
            if u != v and spec.contains(tuple(a - b for a, b in zip(v, u))):
                dominated = True
                break
        if not dominated:
            out.append(v)
    return sorted(set(out), key=graded_lex_key)
