"""Hilbert bases of integer cones as `wazz.hilbert.hilbert_basis` computed
them before it read the kernel and every preimage off the HNF of [W | I],
kept as its differential oracle, and the brute-force box enumeration, both
run on the (k, W) record `IntConeSpec` of a cone and its membership test."""

from dataclasses import dataclass
from itertools import product

from wazz.hilbert import graded_lex_key, nat_restriction
from wazz.linalg import (Lattice, Mat, _hnf_reduce, _pivot, _pivot_coords, as_int_vec, hnf,
                         hnf_with_transform, lattice_reduce)


@dataclass(frozen=True)
class IntConeSpec:
    """The integer cone {x in Z^k : x . W >= 0} for a k x m matrix W."""

    k: int
    w: Mat

    def __post_init__(self):
        if self.w.nrows != self.k:
            raise ValueError("W must have k rows")
        if self.w.den != 1:
            raise ValueError("W must be an integer matrix")

    @property
    def m(self):
        return self.w.ncols

    def image(self, x):
        """x . W as an integer vector of length m."""
        if len(x) != self.k:
            raise ValueError("dimension mismatch")
        rows = self.w.dense()
        return as_int_vec(tuple(sum(a * r[j] for a, r in zip(x, rows)) for j in range(self.m)))


def spec_of(rows):
    return IntConeSpec(k=len(rows), w=Mat(rows))


def in_cone(spec, x):
    """Whether the integer vector x lies in the cone {x : x . W >= 0}."""
    return all(c >= 0 for c in spec.image(x))


def lattice_coords(v, lattice):
    """Integer coordinates of v in the HNF basis, or None if v is outside:
    `_pivot_coords` of v's pivot entries, once v reduces to zero."""
    v, basis = as_int_vec(v), lattice.basis
    if any(_hnf_reduce(v, basis)):
        return None
    pivots = [_pivot(row) for row in basis]
    return _pivot_coords([v[p] for p in pivots], basis, pivots)


def hilbert_basis_by_coords(spec):
    """The old route: the kernel rows of [W | I] put through a second
    `hnf`, and each minimal image element lifted in three steps, its
    coordinates in the image lattice, their product with the transform,
    and the reduction of that lift modulo the kernel."""
    image_lat, transform, rank = hnf_with_transform(spec.w.dense(), dim=spec.m)
    kernel = hnf(transform[rank:], dim=spec.k)
    out = []
    for u in kernel.basis:
        out.append(tuple(u))
        out.append(tuple(-a for a in u))
    for a in nat_restriction(image_lat):
        coords = lattice_coords(a, image_lat)
        lift = tuple(sum(coords[i] * transform[i][t] for i in range(rank))
                     for t in range(spec.k))
        out.append(lattice_reduce(lift, kernel))
    return sorted(set(out), key=graded_lex_key)


def hilbert_bruteforce_oracle(spec, box):
    """Minimal cone points with coordinates in [-box, box].

    Lines found inside the box are canonicalized to +/- pairs of the lattice
    they generate, and the remaining points are compared modulo that lattice.
    Agrees with hilbert_basis whenever the true basis fits in the box.
    """
    if box < 1:
        raise ValueError("box must be >= 1")
    pts = [p for p in product(range(-box, box + 1), repeat=spec.k)
           if any(p) and in_cone(spec, p)]
    units = [p for p in pts if in_cone(spec, tuple(-a for a in p))]
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
            if u != v and in_cone(spec, tuple(a - b for a, b in zip(v, u))):
                dominated = True
                break
        if not dominated:
            out.append(v)
    return sorted(set(out), key=graded_lex_key)
