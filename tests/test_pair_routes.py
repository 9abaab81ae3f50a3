"""The equivalence decision on integers against the `Fraction` routes it
replaced (`tests/pair_oracle.py`, `tests/weights_oracle.py`), and guards that
keep it on integers: pairing, the rational pair closure, the Z closure and
the tag rules."""

import random
from fractions import Fraction as F

import pytest

import pair_oracle
import weights_oracle
from wazz.automata import (NotEquivalent, SemiringTag, WeightedAutomaton, _scalar_rules,
                           automaton_to_text, equivalent, pair_submodule, parse_automaton)
from wazz.linalg import Mat, _reduced, closure_under_maps, scaled

from genrandom import lifted_pair, rand_automaton, rand_config, zero_one_weight
from matvec_oracle import fraction_rows, fractions, identity, svec

T = SemiringTag
BIG = 10**12


def route_pairs(tag, seed, count):
    """Lifted pairs, perturbed lifted pairs and unrelated pairs: 1-2 letters,
    up to 4 states on the left and 3 on the right (or the other way)."""
    rng = random.Random(f"pair-routes/{tag.value}/{seed}")
    for i in range(count):
        alphabet = ("a", "b")[:rng.randint(1, 2)]
        if i % 4 == 3:
            n1, n2 = rng.randint(1, 4), rng.randint(1, 3)
            yield (rand_automaton(rng, tag, n1, alphabet), rand_config(rng, tag, n1),
                   rand_automaton(rng, tag, n2, alphabet), rand_config(rng, tag, n2))
            continue
        k = rng.randint(1, 3)
        aut1, x1, aut2, x2 = lifted_pair(rng, tag, k, rng.randint(0, 4 - k), alphabet)
        if i % 4 == 2:
            aut1 = zero_one_weight(rng, aut1)
        yield (aut1, x1, aut2, x2) if rng.random() < 0.5 else (aut2, x2, aut1, x1)


def uneven_denominator_pairs():
    """q pairs whose sides have letter-matrix denominators 3 and 15, and
    output denominators 2 and 1: one equivalent, one separated by a."""
    left = WeightedAutomaton(tag=T.Q, n=1, alphabet=("a",), out=svec([F(1, 2)]),
                             trans=(Mat([[F(1, 3)]]),))
    for corner, x2 in ((0, svec([F(1, 2), 0])), (F(1, 5), svec([F(1, 2), 1]))):
        right = WeightedAutomaton(tag=T.Q, n=2, alphabet=("a",), out=svec([1, 0]),
                                  trans=(Mat([[F(1, 3), corner], [0, F(1, 5)]]),))
        yield left, svec([1]), right, x2


def outcome(route, pair):
    """(separating word, basis, paired coalgebra) of a pair closure, the
    word None when the pair is equivalent and the others None when not."""
    try:
        basis, paired = route(*pair)
    except NotEquivalent as exc:
        return exc.word, None, None
    return None, basis, paired


def assert_same_paired(paired, expected):
    assert paired == expected
    for m, want in zip(paired.trans, expected.trans):
        assert fraction_rows(m) == fraction_rows(want) and m.ncols == want.ncols
        assert all(type(q) is F for r in fraction_rows(m) for q in r)
        assert m.scaled() == Mat(fraction_rows(m)).scaled()


def assert_same_route(pair):
    """The integer and the `Fraction` pair closure agree, over Z on the HNF
    rows and over Q on the span of the word images: the same rank and the
    same reduced rows; returns the verdict."""
    word, basis, paired = outcome(pair_submodule, pair)
    want_word, want_basis, want_paired = outcome(pair_oracle.pair_submodule, pair)
    assert word == want_word
    if word is not None:
        return False
    if pair[0].tag.integral:
        assert basis == want_basis
    else:
        assert len(basis) == len(want_basis)
        assert _reduced([ints for _, ints in basis]) == _reduced([ints for _, ints in want_basis])
    assert all(type(d) is int and type(ints) is tuple and all(type(a) is int for a in ints)
               for d, ints in basis)
    assert_same_paired(paired, want_paired)
    return True


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("tag", list(T), ids=lambda t: t.value)
def test_pair_submodule_matches_fraction_route(tag, seed):
    verdicts, uneven = set(), 0
    for aut1, x1, aut2, x2 in route_pairs(tag, seed, 40):
        verdicts.add(assert_same_route((aut1, x1, aut2, x2)))
        uneven += any(a.scaled()[0] != b.scaled()[0] for a, b in zip(aut1.trans, aut2.trans))
        assert_same_paired(aut1.paired(aut2), pair_oracle.paired(aut1, aut2))
    assert verdicts == {True, False}
    assert uneven or tag.integral


def test_uneven_denominators():
    assert [assert_same_route(p) for p in uneven_denominator_pairs()] == [True, False]
    right = next(uneven_denominator_pairs())[2]
    assert right.trans[0].scaled()[0] == 15


def test_block_diag_of_unscaled_and_empty_blocks():
    """`Mat.block_diag` fills blocks that were never scaled, and blocks of
    width 0, as `Mat` would."""
    a = Mat([[F(1, 2), 0], [F(-3), F(2, 7)]])
    b = Mat([[F(5, 14)]])
    empty = Mat((), ncols=0)
    for x, y in ((a, b), (b, a), (a, empty), (empty, b), (empty, empty)):
        got = Mat.block_diag(x, y)
        want = pair_oracle.block_diag(x, y)
        assert got == want and got.nrows == want.nrows
        assert got.scaled() == want.scaled()


@pytest.mark.parametrize("tag", [T.NAT, T.INT], ids=lambda t: t.value)
def test_z_closure_matches_hnf_rebuild(tag):
    for seed in range(3):
        for aut1, x1, aut2, x2 in route_pairs(tag, seed, 40):
            pair = aut1.paired(aut2)
            start = fractions(x1) + fractions(x2)
            assert (closure_under_maps(scaled(start), pair.trans)
                    == pair_oracle.closure_under_maps(start, pair.trans))
    rng = random.Random("z-closure/signed")
    for _ in range(100):
        n = rng.randint(1, 4)
        maps = [Mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                for _ in range(rng.randint(1, 2))]
        start = tuple(rng.randint(-4, 4) for _ in range(n))
        got = closure_under_maps(scaled(start), maps)
        assert got == pair_oracle.closure_under_maps(start, maps)
        assert all(type(a) is int for g in got for a in g)


def test_z_closure_rejects_what_the_hnf_rebuild_rejects():
    for start, maps in (((F(1, 2), 0), [identity(2)]),
                        ((1, 0), [Mat([[F(1, 2), 0], [0, 1]])]),
                        ((1, 0), [Mat([[1]])])):
        with pytest.raises(ValueError) as want:
            pair_oracle.closure_under_maps(start, maps)
        with pytest.raises(ValueError) as got:
            closure_under_maps(scaled(start), maps)
        assert str(got.value) == str(want.value)


def rule_grid():
    ratios = {F(a, d) for a in range(-3, 4) for d in range(1, 5)} | {F(0), F(1)}
    for num in (BIG - 1, BIG, BIG + 1):
        for den in (1, 2, BIG - 1, BIG, BIG + 1):
            ratios |= {F(num, den), F(-num, den), F(den, num), F(-den, num)}
    return sorted(ratios)


@pytest.mark.parametrize("tag", list(T), ids=lambda t: t.value)
def test_integer_rules_match_fraction_rules(tag):
    """`_scalar_rules` tests a scaled vector's integers at once: it holds
    exactly when every entry is a scalar of the tag."""
    grid, rules = rule_grid(), _scalar_rules(tag)
    for q in grid:
        assert rules(q.denominator, (q.numerator,)) == weights_oracle.scalar_ok(tag, q), q
    rng = random.Random(f"rules/{tag.value}")
    for _ in range(300):
        v = [rng.choice(grid) for _ in range(rng.randint(0, 4))]
        assert rules(*scaled(v)) == all(weights_oracle.scalar_ok(tag, q) for q in v), v
    # q and real take every rational
    expected = {True} if tag in (T.Q, T.REAL) else {True, False}
    assert {rules(q.denominator, (q.numerator,)) for q in grid} == expected


def parsed(aut, x):
    return parse_automaton(automaton_to_text(aut, x))[0]


def guard_pairs():
    """An equivalent and an inequivalent pair per tag, parsed from text."""
    for tag in T:
        rng = random.Random(f"pair-guard/{tag.value}")
        found = {}
        while len(found) < 2:
            aut1, x1, aut2, x2 = lifted_pair(rng, tag, 2, 1, ("a", "b"))
            if rng.random() < 0.5:
                aut1 = zero_one_weight(rng, aut1)
            word = outcome(pair_oracle.pair_submodule, (aut1, x1, aut2, x2))[0]
            found.setdefault(word is None, (parsed(aut1, x1), x1, parsed(aut2, x2), x2))
        yield from found.values()


def test_equivalence_builds_no_matrix_and_scales_none_again(monkeypatch):
    """Pairing composes the parsed integer forms and both closures read them:
    deciding equivalence runs no `Mat.__init__` and no `Mat._of_cols`."""
    pairs = list(guard_pairs())
    calls = []
    init, of_cols = Mat.__init__, Mat._of_cols.__func__

    def spy_init(self, *args, **kwargs):
        calls.append("Mat.__init__")
        init(self, *args, **kwargs)

    def spy_of_cols(cls, *args):
        calls.append("_of_cols")
        return of_cols(cls, *args)

    monkeypatch.setattr(Mat, "__init__", spy_init)
    monkeypatch.setattr(Mat, "_of_cols", classmethod(spy_of_cols))
    verdicts = {tag: set() for tag in T}
    for aut1, x1, aut2, x2 in pairs:
        verdicts[aut1.tag].add(equivalent(aut1, x1, aut2, x2).equivalent)
    assert calls == []
    assert all(v == {True, False} for v in verdicts.values())
    # the spies are in place
    Mat([[1]]).scaled()
    assert calls == ["Mat.__init__", "_of_cols"]
