"""Word enumerations kept as differential test oracles.

`bfs_separating_word` and `raw_trace` walk all |alphabet|^k words up to a
depth, so they are only usable at test sizes.  The library answers the same
questions from one word closure (`wazz.linalg._word_closure`); the tests
require equal answers.  `_scaled_word_closure` and `_lattice_word_closure`
are the two loops it replaced, the Q closure and the Z closure, kept as
they were; `word_closure` is the Q one with each basis vector as
`Fraction`s.
"""

from collections import deque
from fractions import Fraction

from wazz.linalg import _Echelon, _hnf_reduce, _lowest_terms, _sparse_apply, scaled

from kernel_oracle import _hnf_rows
from matvec_oracle import entrywise_apply, fractions, vdot


def _check_square(n, maps):
    if any(m.nrows != n or m.ncols != n for m in maps):
        raise ValueError("maps must be square of matching dimension")


def _scaled_word_closure(start, maps, rows=None):
    """Q-basis of the closure of the scaled vector `start` under all maps,
    breadth first: yields (word, (d, ints)), the map indices (first applied
    first) that send `start` to ints / d, in lowest terms.  Words come in
    shortlex order and span(images of words <= w) = span(basis vectors of
    words <= w), so the first basis vector a functional does not annihilate
    has the shortlex-least word on which it is nonzero.

    The list `rows`, when given, grows in place with the echelon row of
    each yielded vector: primitive integer rows, each with a positive
    leading entry at a column where every later row is zero, spanning what
    the vectors yielded so far span.  So `_int_rref` of them only clears
    entries above each pivot, and a caller that needs the closure's
    elimination reads it here instead of eliminating the vectors again."""
    _check_square(len(start[1]), maps)
    ech = _Echelon()
    queue = deque([((), start)])
    while queue:
        word, v = queue.popleft()
        if ech.add(v[1]):
            if rows is not None:
                rows.append(ech.rows[-1][1])
            yield word, v
            queue.extend((word + (i,), _lowest_terms(m.apply_scaled(v)))
                         for i, m in enumerate(maps))


def _lattice_word_closure(start, maps, basis):
    """The loop of `closure_under_maps`: grows the empty list `basis` to the
    HNF rows of the lattice, in place, and yields (word, (1, w)) for each
    vector w that enlarged it, the map indices (first applied first) that
    send `start` to w.  Words come in shortlex order, and the lattice
    generated by the vectors of words of length at most l contains the
    image of every word of length at most l, so over Q the two span the
    same space, as with `_scaled_word_closure`."""
    n = len(start[1])
    _check_square(n, maps)
    if start[0] != 1:
        raise ValueError("lattice closure needs integral start")
    forms = [m.scaled() for m in maps]
    if any(den != 1 for den, _ in forms):
        raise ValueError("lattice closure needs integral maps")
    start = start[1]
    if not any(start):
        return
    basis.append(list(start))
    _hnf_rows(basis)
    yield (), (1, start)
    work = deque([((), start)])
    while work:
        word, v = work.popleft()
        for i, (_, rows) in enumerate(forms):
            w = _sparse_apply(1, rows, n, (1, v))[1]
            if any(_hnf_reduce(w, basis)):
                basis.append(w)
                del basis[_hnf_rows(basis):]
                yield word + (i,), (1, w)
                work.append((word + (i,), w))


def word_closure(start, maps):
    """Q-basis of the closure of `start` (rationals) under all maps, breadth
    first, with provenance: yields (word, vector), word being the map indices
    (first applied first) that send `start` to vector, in shortlex order."""
    for word, (den, ints) in _scaled_word_closure(scaled(start), maps):
        yield word, tuple(Fraction(a, den) for a in ints)


def bfs_separating_word(aut1, x1, aut2, x2, maxlen):
    """Shortest word (alphabet-order tie break) where the weights differ,
    from the scaled configurations x1 and x2."""
    frontier = [((), fractions(x1), fractions(x2))]
    out1, out2 = fractions(aut1.out), fractions(aut2.out)
    while frontier:
        nxt = []
        for word, v1, v2 in frontier:
            if vdot(out1, v1) != vdot(out2, v2):
                return word
            if len(word) < maxlen:
                for a in aut1.alphabet:
                    nxt.append((word + (a,), entrywise_apply(aut1.mat(a), v1),
                                entrywise_apply(aut2.mat(a), v2)))
        frontier = nxt
    return None


def raw_trace(coalg, x, depth):
    """Word weights of a linear coalgebra from the scaled x, for every word up
    to depth."""
    out, x = fractions(coalg.out), fractions(x)
    values = {(): vdot(out, x)}
    frontier = [((), x)]
    for _ in range(depth):
        nxt = []
        for word, v in frontier:
            for a, m in zip(coalg.alphabet, coalg.trans):
                image = entrywise_apply(m, v)
                values[word + (a,)] = vdot(out, image)
                nxt.append((word + (a,), image))
        frontier = nxt
    return values
