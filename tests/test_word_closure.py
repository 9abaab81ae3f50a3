"""One word closure for Q and Z (`wazz.linalg._word_closure`), held to the
two loops it replaced (`word_oracles._scaled_word_closure` over Q and
`word_oracles._lattice_word_closure` over Z): the same (word, vector)
sequence and the same echelon or HNF rows, on the forward and the transposed
pair maps of every tag, and the same answer on the edge cases.  A negative
`int` or `nat` answer runs one closure, the one that decides it."""

import random
from fractions import Fraction as F

import pytest

from genrandom import lifted_pair, rand_automaton, rand_config, two_lifts
from wazz import automata, linalg
from wazz.automata import SemiringTag, equivalent
from wazz.linalg import Mat, _Echelon, _Hnf, _concat, _word_closure, closure_under_maps, scaled

from word_oracles import _lattice_word_closure, _scaled_word_closure, bfs_separating_word

T = SemiringTag
INTEGRAL_TAGS = (T.NAT, T.INT)


def normal(seq):
    """A yielded sequence with each vector's integers as a tuple (the old Z
    loop yields lists)."""
    return [(word, (den, tuple(ints))) for word, (den, ints) in seq]


def pairs(tag):
    """Seeded pairs of the tag, 1-2 letters and up to 6+2 states: lifted
    pairs, pairs of two lifts and random pairs."""
    rng = random.Random(f"word-closure/{tag.value}")
    for k, extra in ((1, 0), (2, 1), (3, 1), (4, 2), (6, 2)):
        alphabet = ("a", "b")[:rng.randint(1, 2)]
        yield lifted_pair(rng, tag, k, extra, alphabet)
        yield two_lifts(rng, tag, k, rng.randint(1, 2), alphabet)
        aut1, aut2 = (rand_automaton(rng, tag, k, alphabet) for _ in range(2))
        yield aut1, rand_config(rng, tag, k), aut2, rand_config(rng, tag, k)


def closures(tag):
    """(start, maps) of the forward closure of the configurations and the
    backward closure of the outputs of each pair of the tag."""
    for aut1, x1, aut2, x2 in pairs(tag):
        yield _concat(x1, x2), aut1.paired(aut2).trans
        yield _concat(aut1.out, aut2.out), [Mat.block_diag_transposed(a, b)
                                            for a, b in zip(aut1.trans, aut2.trans)]


def assert_same_q_closure(start, maps):
    ech, rows = _Echelon(), []
    got = list(_word_closure(start, maps, ech))
    assert got == list(_scaled_word_closure(start, maps, rows))
    assert [row for _, row in ech.rows] == rows
    return got


def assert_same_z_closure(start, maps):
    span, basis = _Hnf(), []
    got = list(_word_closure(start, maps, span))
    assert normal(got) == normal(_lattice_word_closure(start, maps, basis))
    assert span.rows == basis
    assert closure_under_maps(start, maps) == [tuple(r) for r in basis]
    return got


@pytest.mark.parametrize("tag", list(T), ids=lambda t: t.value)
def test_q_closure_matches_the_replaced_loop(tag):
    sizes = [len(assert_same_q_closure(start, maps)) for start, maps in closures(tag)]
    assert len(sizes) == 30 and max(sizes) >= 4


@pytest.mark.parametrize("tag", INTEGRAL_TAGS, ids=lambda t: t.value)
def test_z_closure_matches_the_replaced_loop(tag):
    sizes = [len(assert_same_z_closure(start, maps)) for start, maps in closures(tag)]
    assert len(sizes) == 30 and max(sizes) >= 4


def test_zero_and_zero_dimensional_starts_yield_nothing():
    rng = random.Random("word-closure/zero")
    for n in (1, 3):
        maps = [rand_automaton(rng, T.INT, n, ("a",)).trans[0] for _ in range(2)]
        zero = (1, (0,) * n)
        assert assert_same_q_closure(zero, maps) == []
        assert assert_same_z_closure(zero, maps) == []
    empty = [Mat([], ncols=0)]
    assert assert_same_q_closure((1, ()), empty) == []
    assert assert_same_z_closure((1, ()), empty) == []
    assert assert_same_q_closure((1, ()), []) == []


def test_non_integral_start_and_maps_over_z():
    """The Z closure needs an integral start and integral maps: the lattice
    closure raises what the replaced loop raised, and the Q closure runs on
    the same input as before."""
    identity = Mat([[1, 0], [0, 1]])
    half = Mat([[F(1, 2), 0], [0, 1]])
    for start, maps, message in ((scaled([F(1, 2), 1]), [identity], "integral start"),
                                 ((1, (1, 1)), [half], "integral maps")):
        with pytest.raises(ValueError, match=f"lattice closure needs {message}"):
            list(_lattice_word_closure(start, maps, []))
        with pytest.raises(ValueError, match=f"lattice closure needs {message}"):
            closure_under_maps(start, maps)
        assert_same_q_closure(start, maps)


def negative_pairs(tag):
    """Seeded pairs of the tag that separate: a lift with the small side's
    first start entry raised by 1."""
    rng = random.Random(f"word-closure/negative/{tag.value}")
    for k, extra in ((1, 0), (2, 1), (3, 1), (4, 2), (5, 2), (6, 2)):
        for alphabet in (("a",), ("a", "b")):
            big, x_big, small, (den, ints) = lifted_pair(rng, tag, k, extra, alphabet)
            yield big, x_big, small, (den, (ints[0] + den,) + ints[1:])


@pytest.mark.parametrize("tag", INTEGRAL_TAGS, ids=lambda t: t.value)
def test_a_negative_integral_answer_runs_one_closure(tag, monkeypatch):
    """`equivalent` on an `int` or `nat` pair that separates names the word
    from the lattice closure that decides it: one closure per call, and no
    second, rational one."""
    calls = []
    original = linalg._word_closure

    def spy(*args):
        calls.append(type(args[2]))
        return original(*args)

    monkeypatch.setattr(linalg, "_word_closure", spy)
    monkeypatch.setattr(automata, "_word_closure", spy)
    negatives = 0
    for pair in negative_pairs(tag):
        calls.clear()
        result = equivalent(*pair)
        assert calls == [_Hnf]
        if not result:
            negatives += 1
            assert result.word == bfs_separating_word(*pair, pair[0].n + pair[2].n)
    assert negatives >= 6
