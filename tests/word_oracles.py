"""Exhaustive word enumerations kept as differential test oracles.

Both walk all |alphabet|^k words up to a depth, so they are only usable at
test sizes.  The library answers the same questions from one word closure
(`wazz.linalg._scaled_word_closure`); the tests require equal answers.
`word_closure` is that closure with each basis vector as `Fraction`s.
"""

from fractions import Fraction

from wazz.linalg import _scaled_word_closure, vdot, vector


def word_closure(start, maps):
    """Q-basis of the closure of `start` under all maps, breadth first, with
    provenance: yields (word, vector), word being the map indices (first
    applied first) that send `start` to vector, in shortlex order."""
    for word, (den, ints) in _scaled_word_closure(start, maps):
        yield word, tuple(Fraction(a, den) for a in ints)


def bfs_separating_word(aut1, x1, aut2, x2, maxlen):
    """Shortest word (alphabet-order tie break) where the weights differ."""
    frontier = [((), vector(x1), vector(x2))]
    while frontier:
        nxt = []
        for word, v1, v2 in frontier:
            if vdot(aut1.out, v1) != vdot(aut2.out, v2):
                return word
            if len(word) < maxlen:
                for a in aut1.alphabet:
                    nxt.append((word + (a,), aut1.mat(a).apply(v1), aut2.mat(a).apply(v2)))
        frontier = nxt
    return None


def raw_trace(coalg, x, depth):
    """Word weights of a linear coalgebra from x, for every word up to depth."""
    values = {(): vdot(coalg.out, x)}
    frontier = [((), vector(x))]
    for _ in range(depth):
        nxt = []
        for word, v in frontier:
            for a, m in zip(coalg.alphabet, coalg.trans):
                image = m.apply(v)
                values[word + (a,)] = vdot(coalg.out, image)
                nxt.append((word + (a,), image))
        frontier = nxt
    return values
