"""The `Fraction` routes of the equivalence decision, kept as differential
oracles.

`wazz.automata.pair_submodule` tests the scaled images of the rational word
closure against the output difference scaled once, `LinearCoalgebra.paired`
composes the two sides' scaled forms, and `wazz.linalg.closure_under_maps`
applies the integral maps to `int` rows and grows the HNF in place.  These
are the routes they replaced: the block-diagonal matrix rebuilt through
`Mat`, the closure's `Fraction` vectors tested with `vdot`, and the Z
closure that applies each map with `Mat.apply` and re-runs `hnf` on the
whole basis for every new vector.  The tests require equal values of equal
type, the same separating word and the same paired coalgebra.
"""

from collections import deque

from wazz.automata import LinearCoalgebra, NotEquivalent
from wazz.linalg import (Mat, as_int_vec, first_word_off, hnf, is_integral, is_zero,
                         lattice_member, primitive, scaled)

from matvec_oracle import entrywise_apply, fraction_rows, fractions, vdot, vneg, zeros

from word_oracles import word_closure


def block_diag(a, b):
    top = tuple(tuple(r) + zeros(b.ncols) for r in fraction_rows(a))
    bottom = tuple(zeros(a.ncols) + tuple(r) for r in fraction_rows(b))
    return Mat(top + bottom, ncols=a.ncols + b.ncols)


def paired(c1, c2):
    if c1.alphabet != c2.alphabet:
        raise ValueError("automata have different alphabets")
    return LinearCoalgebra(n=c1.n + c2.n, alphabet=c1.alphabet,
                           out=scaled(fractions(c1.out) + zeros(c2.n)),
                           trans=tuple(block_diag(a, b) for a, b in zip(c1.trans, c2.trans)))


def closure_under_maps(start, maps):
    n = len(start)
    if any(m.nrows != n or m.ncols != n for m in maps):
        raise ValueError("maps must be square of matching dimension")
    if not is_integral(start):
        raise ValueError("lattice closure needs integral start")
    for m in maps:
        for r in fraction_rows(m):
            if not is_integral(r):
                raise ValueError("lattice closure needs integral maps")
    if is_zero(start):
        return []
    start = as_int_vec(start)
    lat = hnf([start], dim=n)
    work = deque([start])
    while work:
        v = work.popleft()
        for m in maps:
            w = as_int_vec(entrywise_apply(m, v))
            if not lattice_member(w, lat):
                lat = hnf(lat.basis + (w,), dim=n)
                work.append(w)
    return [tuple(r) for r in lat.basis]


def pair_submodule(aut1, x1, aut2, x2):
    if aut1.tag is not aut2.tag:
        raise ValueError("automata have different semiring tags")
    x1, x2 = fractions(x1), fractions(x2)
    if len(x1) != aut1.n or len(x2) != aut2.n:
        raise ValueError("configuration has wrong length")
    pair = paired(aut1, aut2)
    start = x1 + x2
    difference = fractions(aut1.out) + vneg(fractions(aut2.out))
    maps = pair.trans

    def letters(word):
        return tuple(aut1.alphabet[i] for i in word)

    if not aut1.tag.integral:
        basis = []
        for word, g in word_closure(start, maps):
            if vdot(difference, g) != 0:
                raise NotEquivalent("output functionals differ on the pair closure",
                                    word=letters(word))
            basis.append(g)
    else:
        basis = closure_under_maps(start, maps)
        if any(vdot(difference, g) != 0 for g in basis):
            raise NotEquivalent("output functionals differ on the pair closure",
                                word=letters(first_word_off(primitive(difference),
                                                            scaled(start), maps)))
    return [scaled(g) for g in basis], pair
