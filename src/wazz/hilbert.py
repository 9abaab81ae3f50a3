"""Hilbert bases of integer cones and monoid generators of lattice restrictions.

The core computation finds the minimal nonzero elements of L ∩ N^m for a
sublattice L of Z^m by a Pottier-style completion: maintain a set of lattice
vectors closed under sign-compatible reduction of pairwise sums; the
nonnegative members of the closure, minimalized under the componentwise
order, are exactly the monoid's minimal generators.  A cone x.W >= 0 is
answered by one HNF of [W | I]: its rows split it into a kernel lattice
(emitted as +/- generator pairs) and a pointed image part, which keeps the
completion terminating, and every minimal image element is lifted by one
reduction against the same rows.
"""

from __future__ import annotations

import heapq
from bisect import insort
from itertools import count

from .linalg import _hnf_reduce, _reduced, hnf, hnf_with_transform, is_zero, primitive


def graded_lex_key(v):
    return (sum(abs(a) for a in v), v)


def _conformal(g, v):
    """g fits sign-compatibly inside v (|g_i| <= |v_i| with equal signs)."""
    for a, b in zip(g, v):
        if a > 0 and b < a:
            return False
        if a < 0 and b > a:
            return False
    return True


def _sign_compatible(f, g):
    return all(a * b >= 0 for a, b in zip(f, g))


def _reduce_by(v, g):
    """Subtract the largest multiple of g that stays sign-compatible."""
    t = min(b // a for a, b in zip(g, v) if a != 0)
    return tuple(b - t * a for a, b in zip(g, v))


def _normal_form(v, gens):
    """Reduce v by the (norm-ascending) generator list until irreducible."""
    while any(v):
        for _, g in gens:
            if _conformal(g, v):
                v = _reduce_by(v, g)
                break
        else:
            return v
    return v


def _completion(rows):
    """Closure of {+/- rows} under sign-compatible reduction of sums.

    Pairs are processed smallest sum first, which keeps intermediate sets
    small; termination follows from Dickson's lemma on the sign-split
    coordinates.
    """
    gens = []  # (graded-lex key, vector), kept sorted so small reducers hit first
    heap = []
    tick = count()

    def push_pairs(vec):
        for _, h in gens:
            if not _sign_compatible(vec, h):
                s = tuple(a + b for a, b in zip(vec, h))
                if any(s):
                    heapq.heappush(heap, (sum(abs(a) for a in s), next(tick), s))

    for r in rows:
        for seed in (tuple(r), tuple(-a for a in r)):
            seed = _normal_form(seed, gens)
            if any(seed):
                push_pairs(seed)
                insort(gens, (graded_lex_key(seed), seed))
    while heap:
        _, _, s = heapq.heappop(heap)
        s = _normal_form(s, gens)
        if any(s):
            push_pairs(s)
            insort(gens, (graded_lex_key(s), s))
    return [g for _, g in gens]


def nat_restriction(lat):
    """Monoid generators of Z ∩ N^m for a lattice Z given in HNF: the
    minimal nonzero elements, graded-lexicographically sorted."""
    if not lat.basis:
        return []
    closure = _completion(lat.basis)
    nonneg = sorted({g for g in closure if all(a >= 0 for a in g) and any(g)},
                    key=graded_lex_key)
    minimal = []
    for v in nonneg:
        if not any(all(a <= b for a, b in zip(u, v)) for u in minimal if u != v):
            minimal.append(v)
    return minimal


def hilbert_basis(w):
    """Monoid generators of {x in Z^k : x.W >= 0}, W a k x m integer `Mat`.

    One HNF of [W | I] answers it (Cohen 1993, §2.4).  Its rows below
    `rank` are the kernel lattice's HNF basis, and come out as +/- pairs.
    Each minimal element a of (row lattice of W) ∩ N^m is lifted by the
    HNF reduction of [-a | 0] against all its rows: a lies in the lattice,
    so the W part clears exactly and leaves a preimage of a, already
    reduced modulo the kernel.  For a pointed cone this is exactly the set
    of minimal nonzero elements, the unique Hilbert basis.
    """
    if w.den != 1:
        raise ValueError("W must be an integer matrix")
    k, m = w.nrows, w.ncols
    image_lat, transform, rank = hnf_with_transform(w.dense(), dim=m)
    out = []
    for u in transform[rank:]:
        out += [u, tuple(-a for a in u)]
    rows = [h + u for h, u in zip(image_lat.basis + ((0,) * m,) * (k - rank), transform)]
    for a in nat_restriction(image_lat):
        out.append(tuple(_hnf_reduce([-b for b in a] + [0] * k, rows)[m:]))
    return sorted(set(out), key=graded_lex_key)


def qplus_restriction_by_scaling(gens):
    """Q+-semimodule generators of span(gens) ∩ Q+^m, the test suite's
    oracle for the extreme rays that `cone_restriction` gives the qplus
    middle carrier.  Nothing in the package calls it; the benchmark's tracer
    still names it in its table of traced functions.

    Clears denominators to get an integer lattice inside the span, takes its
    N-generators, and returns those; every nonnegative rational element of
    the span is a positive rational multiple of a lattice element, so the
    same set generates over Q+.  The span basis is canonicalized first (the
    primitive rows of `_reduced`), which keeps the lattice entries small;
    any integer lattice spanning the same subspace works.
    """
    rows = [primitive(g) for g in gens if not is_zero(g)]
    if not rows:
        return []
    lat = hnf(_reduced(rows)[1], dim=len(rows[0]))
    return [tuple(v) for v in nat_restriction(lat)]

