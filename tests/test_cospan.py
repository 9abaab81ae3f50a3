"""The cospan witnesses onto the pair's quotient by its word functionals.

For the ring and field tags (`int`, `q`, `real`) against the span witnesses
they replaced (`span_oracle.ring_span_zigzag`): the same verdict on every
seeded pair, both witnesses VALID on every equivalent one, every node of a
cospan decided without a factorization, and the same separating word as the
forward closure (`separating_word`) on every other one.

For the semiring tags (`nat`, `qplus`, `rplus`, `unit`, `pca`) against the
paper's routes (`span_zigzag`, `five_node_zigzag`): every cospan VALID, every
pair whose quotient leaves the semiring written byte for byte as the named
route writes it, the same separating word on every separated pair, and no
Hilbert completion, double description or pyramid on a cospan run."""

import random
import sys
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from genrandom import lifted_pair, rand_automaton, rand_config, two_lifts, zero_one_weight
from matvec_oracle import fractions, matmul, vdot
from span_oracle import RING_TAGS, paper_route, ring_span_zigzag
from wazz import automata, hilbert, pca, polyhedra, zigzag
from wazz.automata import (NotEquivalent, SemiringTag, WeightedAutomaton, automaton_to_text,
                           separating_word)
from wazz.cli import main
from wazz.linalg import Mat, scaled
from wazz.zigzag import (CUBIC, FREE_MODULE, FREE_PCA, GHAT, _quotient_cospan, cubic_zigzag,
                         ghat_zigzag, parse_zigzag, span_zigzag, verify_zigzag, zigzag_to_text)

T = SemiringTag


def perturbed(rng, tag, k, extra, alphabet):
    """A lifted pair with one nonzero weight of one side set to zero."""
    big, x_big, small, x_small = lifted_pair(rng, tag, k, extra, alphabet)
    if rng.random() < 0.5:
        return zero_one_weight(rng, big), x_big, small, x_small
    return big, x_big, zero_one_weight(rng, small), x_small


def random_pair(rng, tag, alphabet):
    """Two independent random automata: mostly separated, at every length."""
    n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
    return (rand_automaton(rng, tag, n1, alphabet), rand_config(rng, tag, n1),
            rand_automaton(rng, tag, n2, alphabet), rand_config(rng, tag, n2))


def agreeing_at_eps(rng, tag, alphabet):
    """Two random automata from configurations scaled to equal output
    weights: mostly separated by one letter, and often by each letter."""
    while True:
        aut1, x1, aut2, x2 = random_pair(rng, tag, alphabet)
        w1 = vdot(fractions(aut1.out), fractions(x1))
        w2 = vdot(fractions(aut2.out), fractions(x2))
        if w1 and w2:
            return (aut1, scaled([w2 * a for a in fractions(x1)]),
                    aut2, scaled([w1 * a for a in fractions(x2)]))


def separated_at_eps(rng, tag, alphabet):
    """One automaton from two configurations of different output weight."""
    while True:
        aut = rand_automaton(rng, tag, rng.randint(1, 3), alphabet)
        x, y = rand_config(rng, tag, aut.n), rand_config(rng, tag, aut.n)
        if vdot(fractions(aut.out), fractions(x)) != vdot(fractions(aut.out), fractions(y)):
            return aut, x, aut, y


def zero_outputs(rng, tag, alphabet):
    """Two random automata whose outputs are both zero: equivalent, with a
    quotient of dimension 0."""
    sides = []
    for n in (rng.randint(1, 3), rng.randint(1, 3)):
        aut = rand_automaton(rng, tag, n, alphabet)
        sides += [WeightedAutomaton(tag=tag, n=n, alphabet=alphabet, out=(1, (0,) * n),
                                    trans=aut.trans), rand_config(rng, tag, n)]
    return tuple(sides)


def planted_chain(rng, tag, length):
    """Two `length`-state chains over a, b that differ only in the output of
    the last state, each conjugated by its own unimodular change of basis
    P (images P C P^-1, output out P^-1, start P e_0).  Letter a moves state
    i to i + 1, b loops on every state but the last, so a^(length - 1) is
    the unique shortest separating word."""
    n, sides = length, []
    for final in (1, rng.choice([2, 3, -1])):
        p = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        p_inv = [row[:] for row in p]
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-1, 1])
            p[i] = [a + c * b for a, b in zip(p[i], p[j])]
            for row in p_inv:
                row[j] -= c * row[i]
        chain = {"a": [[F(int(i == j + 1)) for j in range(n)] for i in range(n)],
                 "b": [[F(int(i == j < n - 1)) for j in range(n)] for i in range(n)]}
        trans = tuple(matmul(matmul(Mat(p), Mat(chain[a])), Mat(p_inv)) for a in "ab")
        # out P^-1 as the output, so that the weights of P x are those of x
        out = [final * a for a in p_inv[n - 1]]
        sides += [WeightedAutomaton(tag=tag, n=n, alphabet=("a", "b"), out=scaled(out),
                                    trans=trans), scaled([row[0] for row in p])]
    return tuple(sides)


def ring_pairs(tag):
    """(kind, pair) for the seeded pairs of one ring tag."""
    rng = random.Random(f"cospan/{tag.value}")
    for _ in range(4):
        for alphabet in (("a",), ("a", "b")):
            k = rng.randint(1, 3)
            yield "lift", lifted_pair(rng, tag, k, rng.randint(0, 2), alphabet)
            yield "two lifts", two_lifts(rng, tag, k, rng.randint(1, 2), alphabet)
            yield "perturbed", perturbed(rng, tag, k, rng.randint(0, 2), alphabet)
            yield "random", random_pair(rng, tag, alphabet)
            yield "equal at eps", agreeing_at_eps(rng, tag, alphabet)
            yield "eps", separated_at_eps(rng, tag, alphabet)
            yield "zero outputs", zero_outputs(rng, tag, alphabet)
    for length in (2, 5, 8):
        yield "chain", planted_chain(rng, tag, length)


def verdict(build, pair):
    """The witness, or the separating word."""
    try:
        return build(*pair)
    except NotEquivalent as exc:
        return exc.word


@pytest.mark.parametrize("tag", RING_TAGS, ids=lambda t: t.value)
def test_cospan_agrees_with_the_span_oracle(tag):
    seen = set()
    for kind, pair in ring_pairs(tag):
        cospan, span = verdict(cubic_zigzag, pair), verdict(ring_span_zigzag, pair)
        if isinstance(span, tuple):
            # the shortlex-least word, as the forward closure names it
            assert cospan == span == separating_word(*pair), kind
            seen.add((kind, len(span)))
            continue
        seen.add((kind, "equivalent", cospan.nodes[1].dim))
        assert verify_zigzag(span).valid, kind
        report = verify_zigzag(cospan)
        assert report.valid, (kind, [c.name for c in report.failures()])
        assert [node.kind for node in cospan.nodes] == [FREE_MODULE] * 3
        assert [(m.src, m.dst) for m in cospan.morphisms] == [(0, 1), (2, 1)]
        assert all(zigzag._diagonal(node.generators, node.dim) for node in cospan.nodes)
        assert parse_zigzag(zigzag_to_text(cospan)) == cospan
    kinds = {s[0] for s in seen}
    assert {"lift", "two lifts", "zero outputs"} <= {s[0] for s in seen if s[1] == "equivalent"}
    assert {"perturbed", "random", "equal at eps", "eps", "chain"} <= kinds
    assert ("eps", 0) in seen and ("chain", 7) in seen and ("equal at eps", 1) in seen
    assert all(s[1] == 0 for s in seen if s[0] == "eps")
    assert {s[2] for s in seen if s[0] == "zero outputs"} == {0}


@pytest.mark.parametrize("tag", RING_TAGS, ids=lambda t: t.value)
def test_equivalent_pairs_build_no_pair_closure(tag, monkeypatch):
    """A ring-tag witness comes from the quotient alone: the forward pair
    closure (`pair_submodule`) is never called."""
    calls = []
    original = automata.pair_submodule

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(automata, "pair_submodule", spy)
    monkeypatch.setattr(zigzag, "pair_submodule", spy)
    built = 0
    for kind, pair in ring_pairs(tag):
        if kind in ("lift", "two lifts", "zero outputs"):
            cubic_zigzag(*pair)
            built += 1
    assert built >= 20 and calls == []
    # the spy is in place: a span witness of another tag calls it
    span_zigzag(*lifted_pair(random.Random(0), T.QPLUS, 2, 1, ("a",)))
    assert len(calls) == 1


@pytest.mark.parametrize("tag", RING_TAGS, ids=lambda t: t.value)
def test_a_relating_element_of_another_trace_breaks_only_the_chain(tag):
    rng = random.Random(f"cospan/other-trace/{tag.value}")
    broken = 0
    for _ in range(10):
        aut1, x1, aut2, x2 = lifted_pair(rng, tag, 2, 1, ("a", "b"))
        z = cubic_zigzag(aut1, x1, aut2, x2)
        other = scaled([2 * a for a in fractions(x2)])
        if separating_word(aut1, x1, aut2, other) is None:
            continue
        report = verify_zigzag(replace(z, relating=((0, x1), (2, other)),
                                       endpoints=(x1, other)))
        assert [c.name for c in report.failures()] == ["chain[1]"]
        broken += 1
    assert broken >= 5


def test_int_configurations_must_be_integral():
    aut1, x1, aut2, x2 = lifted_pair(random.Random("cospan/int-start"), T.INT, 2, 1, ("a",))
    half = scaled([F(1, 2)] + [0] * (aut2.n - 1))
    for build in (cubic_zigzag, ring_span_zigzag):
        with pytest.raises(ValueError, match="lattice closure needs integral start"):
            build(aut1, x1, aut2, half)


@pytest.mark.parametrize("tag", RING_TAGS, ids=lambda t: t.value)
def test_separating_words_need_no_closure_of_the_configurations(tag, monkeypatch):
    """A ring-tag `zigzag` reads its separating word off the closure of the
    outputs, over Z as over Q: the forward closure (`pair_submodule`) is
    never called, from whichever module."""
    calls = []
    original = automata.pair_submodule

    def spy(*args):
        calls.append(args)
        return original(*args)

    patched = set()
    for module in list(sys.modules.values()):
        if (module is not None and module.__name__.split(".")[0] == "wazz"
                and getattr(module, "pair_submodule", None) is original):
            monkeypatch.setattr(module, "pair_submodule", spy)
            patched.add(module.__name__)
    assert {"wazz.automata", "wazz.zigzag"} <= patched
    words = [verdict(cubic_zigzag, pair) for _, pair in ring_pairs(tag)]
    assert sum(isinstance(w, tuple) for w in words) >= 20 and calls == []
    # the spy is in place: `separating_word` calls it, and so does a
    # `span_zigzag` through the name `zigzag` imported
    separating_word(*planted_chain(random.Random(0), tag, 3))
    assert len(calls) == 1
    span_zigzag(*lifted_pair(random.Random(0), T.QPLUS, 2, 1, ("a",)))
    assert len(calls) == 2


def test_pairs_share_the_alphabet():
    rng = random.Random("cospan/alphabet")
    for tag in RING_TAGS:
        aut1, aut2 = rand_automaton(rng, tag, 2, ("a",)), rand_automaton(rng, tag, 2, ("b",))
        pair = aut1, rand_config(rng, tag, 2), aut2, rand_config(rng, tag, 2)
        for build in (cubic_zigzag, ring_span_zigzag, separating_word):
            with pytest.raises(ValueError, match="automata have different alphabets"):
                build(*pair)


# ---------------------------------------------------------------------------
# the semiring tags: cospan first, the paper's route as the fallback

SEMIRING_TAGS = (T.NAT, T.QPLUS, T.RPLUS, T.UNIT, T.PCA)

# (tag, k, extra, seed) of one-letter lifted pairs lifted_pair(Random(seed),
# tag, k, extra, ("a",)) whose quotient leaves the semiring: a negative
# entry in the nat quotient's letter matrix, a column of h2 above 1 in sum
# for unit and pca
FALLBACKS = ((T.NAT, 3, 1, 0), (T.UNIT, 2, 1, 4), (T.PCA, 2, 1, 42))


def default_route(tag):
    """The producer `wazz zigzag` runs for the tag."""
    return ghat_zigzag if tag is T.PCA else cubic_zigzag


def cospan_of(pair):
    """The pair's cospan, or None where its quotient leaves the semiring."""
    return _quotient_cospan(GHAT if pair[0].tag is T.PCA else CUBIC, *pair)


def fallback_pair(tag, k, extra, seed):
    return lifted_pair(random.Random(seed), tag, k, extra, ("a",))


def semiring_pairs(tag):
    """(kind, pair) for the seeded pairs of one semiring tag, with one and
    two letters: lifted pairs, pairs of two lifts, zero spans (both
    configurations zero) and pairs that are mostly separated."""
    rng = random.Random(f"cospan/semiring/{tag.value}")
    for _ in range(4):
        for alphabet in (("a",), ("a", "b")):
            k = rng.randint(1, 3)
            yield "lift", lifted_pair(rng, tag, k, rng.randint(0, 2), alphabet)
            yield "two lifts", two_lifts(rng, tag, k, rng.randint(1, 2), alphabet)
            big, _, small, _ = lifted_pair(rng, tag, k, rng.randint(1, 2), alphabet)
            yield "zero span", (big, scaled([0] * big.n), small, scaled([0] * small.n))
            yield "perturbed", perturbed(rng, tag, k, rng.randint(0, 2), alphabet)
            yield "random", random_pair(rng, tag, alphabet)
    for fallback in FALLBACKS:
        if fallback[0] is tag:
            yield "fixed fallback", fallback_pair(*fallback)


@pytest.mark.parametrize("tag", SEMIRING_TAGS, ids=lambda t: t.value)
def test_cospan_or_the_named_route(tag):
    seen = set()
    for kind, pair in semiring_pairs(tag):
        got, named = verdict(default_route(tag), pair), verdict(paper_route(tag), pair)
        if isinstance(named, tuple):
            # the backward closure names the forward closure's word
            assert got == named == separating_word(*pair), kind
            seen.add((kind, "separated"))
            continue
        assert verify_zigzag(named).valid, kind
        cospan = cospan_of(pair)
        if cospan is None:
            assert zigzag_to_text(got) == zigzag_to_text(named), kind
            seen.add((kind, "fallback"))
            continue
        assert got == cospan
        report = verify_zigzag(got)
        assert report.valid, (kind, [c.name for c in report.failures()])
        kind_of_free = FREE_PCA if tag in (T.UNIT, T.PCA) else FREE_MODULE
        assert [node.kind for node in got.nodes] == [kind_of_free] * 3
        assert [(m.src, m.dst) for m in got.morphisms] == [(0, 1), (2, 1)]
        assert got.relating == ((0, pair[1]), (2, pair[3]))
        assert all(zigzag._diagonal(node.generators, node.dim) for node in got.nodes)
        assert parse_zigzag(zigzag_to_text(got)) == got
        seen.add((kind, "cospan"))
    assert {"lift", "two lifts", "zero span"} <= {k for k, how in seen if how == "cospan"}
    assert {("perturbed", "separated"), ("random", "separated")} <= seen
    if tag in {f[0] for f in FALLBACKS}:
        assert ("fixed fallback", "fallback") in seen


@pytest.mark.parametrize("fallback", FALLBACKS, ids=lambda f: f[0].value)
def test_fallback_pairs_take_the_named_route(fallback):
    pair = fallback_pair(*fallback)
    assert cospan_of(pair) is None
    z = default_route(fallback[0])(*pair)
    assert zigzag_to_text(z) == zigzag_to_text(paper_route(fallback[0])(*pair))
    assert len(z.nodes) == (5 if fallback[0] is T.PCA else 3)
    assert verify_zigzag(z).valid


@pytest.mark.parametrize("tag", SEMIRING_TAGS, ids=lambda t: t.value)
def test_a_cospan_run_enters_no_restriction(tag, monkeypatch):
    """A cospan is built from the quotient alone: no Hilbert completion, no
    double description and no pyramid runs, from whichever module."""
    entered = []

    def spy(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: entered.append(name) or original(*args))

    spy(hilbert, "_completion")
    spy(polyhedra, "_pointed_cone_rays")
    spy(pca, "pyramid_extension")
    monkeypatch.setattr(zigzag, "pyramid_extension", pca.pyramid_extension)
    built = 0
    for kind, pair in semiring_pairs(tag):
        if kind in ("lift", "two lifts", "zero span") and cospan_of(pair) is not None:
            default_route(tag)(*pair)
            built += 1
    assert built >= 20 and entered == []
    # the spies are in place: the paper's route enters them
    paper_route(tag)(*lifted_pair(random.Random("cospan/spies"), tag, 2, 1, ("a",)))
    assert entered
    for fallback in FALLBACKS:
        if fallback[0] is tag:
            entered.clear()
            default_route(tag)(*fallback_pair(*fallback))
            assert entered


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_one_letter_nat_5_plus_2_in_under_a_second(seed, tmp_path, capsys):
    """One-letter nat 5+2 pairs whose span route ran past 60 s: `wazz
    zigzag` writes their cospan at once, and `wazz verify` passes it."""
    aut1, x1, aut2, x2 = lifted_pair(random.Random(seed), T.NAT, 5, 2, ("a",))
    left, right, witness = (str(tmp_path / name) for name in ("l.wa", "r.wa", "w.zz"))
    for path, aut, x in ((left, aut1, x1), (right, aut2, x2)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(automaton_to_text(aut, x))
    start = time.perf_counter()
    assert main(["zigzag", left, right, "-o", witness]) == 0
    elapsed = time.perf_counter() - start
    assert main(["verify", witness, left, right]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("VALID")
    with open(witness, encoding="utf-8") as fh:
        z = parse_zigzag(fh.read())
    assert [(m.src, m.dst) for m in z.morphisms] == [(0, 1), (2, 1)]
    assert elapsed < 1


def test_one_letter_nat_5_plus_2_seeds_0_and_3_fall_back():
    """Their quotients leave N: seed 0's needs a rebase on the smaller side,
    seed 3's has negative entries, so both take the span route."""
    for seed in (0, 3):
        assert cospan_of(lifted_pair(random.Random(seed), T.NAT, 5, 2, ("a",))) is None
