"""Exhaustive word enumerations kept as differential test oracles.

Both walk all |alphabet|^k words up to a depth, so they are only usable at
test sizes.  The library answers the same questions from one word closure
(`wazz.linalg._scaled_word_closure`); the tests require equal answers.
`word_closure` is that closure with each basis vector as `Fraction`s.
"""

from fractions import Fraction

from wazz.linalg import _scaled_word_closure, scaled

from matvec_oracle import entrywise_apply, fractions, vdot


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
