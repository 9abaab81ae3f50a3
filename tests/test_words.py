"""The word closure against the exhaustive word enumerations it replaced."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import kernel_oracle
import verify_oracle
from wazz.automata import (LinearCoalgebra, NotEquivalent, SemiringTag, WeightedAutomaton,
                           equivalent, separating_word)
from wazz.formats import word_text
from wazz.linalg import Mat, closure_under_maps, scaled, vector
from wazz.zigzag import (CUBIC, FREE_MODULE, GENERATED_MODULE, Morphism, ZigZag,
                         ZigZagNode, cubic_zigzag, ghat_zigzag, verify_zigzag)

from genrandom import lifted_pair, rand_automaton, rand_config, zero_one_weight
from matvec_oracle import apply, fractions, identity, svec, transpose, zeros
from word_oracles import bfs_separating_word, raw_trace, word_closure

T = SemiringTag


def word_pairs(tag, count):
    """Random, lifted and perturbed lifted pairs: 1-2 letters, up to 3 states
    a side."""
    rng = random.Random("word-closure-" + tag.value)
    for i in range(count):
        alphabet = ("a", "b")[: rng.randint(1, 2)]
        if i % 3 == 0:
            n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
            yield (rand_automaton(rng, tag, n1, alphabet), rand_config(rng, tag, n1),
                   rand_automaton(rng, tag, n2, alphabet), rand_config(rng, tag, n2))
            continue
        k = rng.randint(1, 2)
        aut1, x1, aut2, x2 = lifted_pair(rng, tag, k, rng.randint(0, 3 - k), alphabet)
        if i % 3 == 2:
            if rng.random() < 0.5:
                aut1 = zero_one_weight(rng, aut1)
            else:
                aut2 = zero_one_weight(rng, aut2)
        yield aut1, x1, aut2, x2


@pytest.mark.parametrize("tag", list(T))
def test_same_word_as_exhaustive_bfs(tag):
    lengths = []
    for aut1, x1, aut2, x2 in word_pairs(tag, 150):
        expected = bfs_separating_word(aut1, x1, aut2, x2, aut1.n + aut2.n)
        assert separating_word(aut1, x1, aut2, x2) == expected
        res = equivalent(aut1, x1, aut2, x2)
        assert res.equivalent == (expected is None)
        assert res.word == expected
        if expected is not None:
            builder = ghat_zigzag if tag is T.PCA else cubic_zigzag
            with pytest.raises(NotEquivalent) as err:
                builder(aut1, x1, aut2, x2)
            assert err.value.word == expected
            lengths.append(len(expected))
    # the sample reaches both verdicts and words past the empty one
    assert 0 < len(lengths) < 150 and max(lengths) >= 2


def _elementary_pair(rng, n):
    """A random unimodular basis change P and its inverse, as row lists."""
    p = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = F(rng.choice([-1, 1]))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= c * row[i]
    return p, p_inv


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def planted_chain(rng, tag, length):
    """Two L-state chains over a, b that differ only in the output of the
    last state, each disguised by its own unimodular change of basis, so
    that a^(L-1) is the unique shortest separating word."""
    n = length
    sides = []
    for final in (F(1), F(rng.choice([2, 3, -1]))):
        base = {
            "a": [[F(int(i + 1 == j)) for j in range(n)] for i in range(n)],
            "b": [[F(int(i == j and i < n - 1)) for j in range(n)] for i in range(n)],
        }
        out = [F(0)] * (n - 1) + [final]
        p, p_inv = _elementary_pair(rng, n)
        # rows are images of basis states: conjugate to P T P^-1, output P out,
        # start e_0 P^-1
        trans = tuple(transpose(Mat(_matmul(_matmul(p, base[a]), p_inv))) for a in "ab")
        new_out = [sum(r * o for r, o in zip(row, out)) for row in p]
        aut = WeightedAutomaton(tag=tag, n=n, alphabet=("a", "b"), out=scaled(new_out),
                                trans=trans)
        sides.append((aut, scaled(p_inv[0])))
    (aut1, x1), (aut2, x2) = sides
    return aut1, x1, aut2, x2


@pytest.mark.parametrize("tag", [T.Q, T.INT, T.REAL])
def test_planted_chains(tag):
    rng = random.Random("planted-" + tag.value)
    for length in range(4, 9):
        aut1, x1, aut2, x2 = planted_chain(rng, tag, length)
        expected = bfs_separating_word(aut1, x1, aut2, x2, aut1.n + aut2.n)
        assert expected == ("a",) * (length - 1)
        assert separating_word(aut1, x1, aut2, x2) == expected
        assert equivalent(aut1, x1, aut2, x2).word == expected


def trace_check(z):
    """The oracle's `trace-agreement` check of z; the verifier makes none, as
    its other checks imply it."""
    return next(c for c in verify_oracle.verify_zigzag(z).checks
                if c.name == "trace-agreement")


def shortlex_least_difference(tr1, tr2, alphabet):
    differ = [w for w in tr1 if tr1[w] != tr2[w]]
    if not differ:
        return None
    return min(differ, key=lambda w: (len(w), [alphabet.index(a) for a in w]))


def assert_trace_check_matches_raw_traces(z):
    x1, x2 = z.endpoints
    depth = z.nodes[0].dim + z.nodes[-1].dim
    tr1 = raw_trace(z.nodes[0].coalgebra, x1, depth)
    tr2 = raw_trace(z.nodes[-1].coalgebra, x2, depth)
    check = trace_check(z)
    assert check.ok == (tr1 == tr2)
    if tr1 != tr2:
        assert not verify_zigzag(z).valid
    word = shortlex_least_difference(tr1, tr2, z.alphabet)
    if word is not None:
        assert check.detail == f'endpoint traces differ on word "{word_text(word, z.alphabet)}"'
    return check.ok


def with_right_output(z, out):
    right = z.nodes[-1]
    node = replace(right, coalgebra=replace(right.coalgebra, out=out))
    return ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                  nodes=z.nodes[:-1] + (node,), morphisms=z.morphisms,
                  relating=z.relating, endpoints=z.endpoints)


@pytest.mark.parametrize("tag", list(T))
def test_trace_agreement_matches_raw_traces_on_tampered_witnesses(tag):
    rng = random.Random("tampered-right-output-" + tag.value)
    verdicts = []
    for _ in range(6 if tag is T.PCA else 10):
        alphabet = ("a", "b")[: rng.randint(1, 2)]
        aut1, x1, aut2, x2 = lifted_pair(rng, tag, rng.randint(1, 2), rng.randint(0, 1),
                                         alphabet)
        builder = ghat_zigzag if tag is T.PCA else cubic_zigzag
        z = builder(aut1, x1, aut2, x2)
        assert assert_trace_check_matches_raw_traces(z)
        out = list(fractions(z.nodes[-1].coalgebra.out))
        out[rng.randrange(len(out))] += rng.choice([F(1), F(-1), F(1, 2)])
        verdicts.append(assert_trace_check_matches_raw_traces(with_right_output(z, scaled(out))))
    assert not all(verdicts)


class TestDegenerateClosures:
    def test_zero_start_vector(self):
        maps = [Mat([[1, 2], [3, 4]]), identity(2)]
        assert list(word_closure(zeros(2), maps)) == []
        assert closure_under_maps(svec([0, 0]), maps) == []
        rng = random.Random("zero-start")
        for tag in T:
            aut1 = rand_automaton(rng, tag, 2, ("a", "b"))
            aut2 = rand_automaton(rng, tag, 1, ("a", "b"))
            zero1, zero2 = svec([0]), svec([0, 0])
            assert bfs_separating_word(aut1, zero2, aut2, zero1, 3) is None
            assert separating_word(aut1, zero2, aut2, zero1) is None
            res = equivalent(aut1, zero2, aut2, zero1)
            assert res.equivalent and res.basis == ()

    def test_zero_dimensional_start(self):
        assert list(word_closure((), [Mat((), ncols=0)])) == []

    def _witness(self, right_dim, right_out, x2):
        def node(kind, dim, out):
            coalg = LinearCoalgebra(n=dim, alphabet=("a",), out=svec(out),
                                    trans=(Mat([[0] * dim] * dim, ncols=dim),))
            return ZigZagNode(kind=kind, generators=(), coalgebra=coalg)

        return ZigZag(functor=CUBIC, tag=T.Q, alphabet=("a",),
                      nodes=(node(FREE_MODULE, 0, ()), node(GENERATED_MODULE, 0, ()),
                             node(FREE_MODULE, right_dim, right_out)),
                      morphisms=(Morphism(1, 0, Mat((), ncols=0)),
                                 Morphism(1, 2, Mat([()] * right_dim, ncols=0))),
                      relating=((1, svec(())),), endpoints=(svec(()), svec(x2)))

    def test_zero_dimensional_endpoints(self):
        z = self._witness(0, (), ())
        assert assert_trace_check_matches_raw_traces(z)
        report = verify_zigzag(z)
        assert report.valid, [c for c in report.failures()]

    def test_zero_dimensional_left_endpoint(self):
        assert assert_trace_check_matches_raw_traces(self._witness(1, (0,), (1,)))
        z = self._witness(1, (1,), (1,))
        assert not assert_trace_check_matches_raw_traces(z)
        assert trace_check(z).detail == 'endpoint traces differ on word "eps"'


class TestWordClosure:
    def test_provenance_and_order(self):
        rng = random.Random("word-closure-provenance")
        for _ in range(40):
            n = rng.randint(1, 4)
            maps = [Mat([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
                    for _ in range(rng.randint(1, 3))]
            start = vector([rng.randint(-1, 1) for _ in range(n)])
            pairs = list(word_closure(start, maps))
            ech = kernel_oracle.Echelon()
            assert all(ech.add(v) for _, v in pairs)  # a basis: independent vectors
            words = [w for w, _ in pairs]
            assert words == sorted(words, key=lambda w: (len(w), w))
            for word, v in pairs:
                image = start
                for i in word:
                    image = apply(maps[i], image)
                assert image == v
