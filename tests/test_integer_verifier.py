"""Differential tests of the integer-image paths against their `Fraction`
oracles: `vdot` against the entrywise dot, `check_weights` against the
`Fraction` weight rules on planted violations, `fmt_rat` against
`str(Fraction(x))`, and `verify_zigzag` against `tests/verify_oracle.py`,
check by check on (name, verdict, detail), on valid and mutated witnesses of
all eight tags and on edge cases: fractional images into integral carriers,
dimension-0 nodes, nodes without generators, zero-column morphisms, rows
with coprime denominators and denominators up to 10**12."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import verify_oracle
import weights_oracle
from matvec_oracle import entrywise_dot
from wazz.automata import SemiringTag, TagViolation, WeightedAutomaton, check_weights
from wazz.formats import fmt_rat
from wazz.linalg import Mat, vdot, vector, zeros
from wazz.zigzag import cubic_zigzag, ghat_zigzag, verify_zigzag

from genrandom import lift, lifted_pair, rand_automaton, report_witnesses

T = SemiringTag
BIG = 10**12


def rand_entry(rng, den_bound):
    """0, a small int, or a Fraction with a denominator up to den_bound."""
    roll = rng.random()
    if roll < 0.2:
        return 0
    if roll < 0.4:
        return rng.randint(-9, 9)
    return F(rng.randint(-den_bound, den_bound), rng.randint(1, den_bound))


class TestVdot:
    @pytest.mark.parametrize("den_bound", [1, 9, BIG])
    def test_matches_entrywise_sum(self, den_bound):
        rng = random.Random(f"vdot/{den_bound}")
        for _ in range(500):
            n = rng.randint(0, 8)
            u = tuple(rand_entry(rng, den_bound) for _ in range(n))
            v = tuple(rand_entry(rng, den_bound) for _ in range(n))
            got, want = vdot(u, v), entrywise_dot(u, v)
            assert got == want and type(got) is F

    def test_length_zero_and_ints(self):
        assert vdot((), ()) == 0 and type(vdot((), ())) is F
        assert vdot((2, -3), (F(1, 2), 5)) == -14
        assert type(vdot((2, -3), (4, 5))) is F

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            vdot((1, 2), (1, 2, 3))


def fmt_cases():
    class Sub(F):
        pass

    return [0, 7, -12, F(3, 4), F(-10, 4), F(6, 3), True, False, Sub(5, 10), F(1, BIG)]


@pytest.mark.parametrize("value", fmt_cases(), ids=repr)
def test_fmt_rat_matches_fraction_text(value):
    assert fmt_rat(value) == str(F(value))


# ---------------------------------------------------------------------------
# tag weight rules on planted violations


def planted(rng, tag):
    """(out, trans) of a random automaton of the tag with 1-3 cells replaced
    by values that break one rule or another for some tag: a fraction, a
    negative entry, an entry that pushes a column sum or a state's mass
    over 1, and an output above 1."""
    n, letters = rng.randint(1, 4), rng.randint(1, 2)
    aut = rand_automaton(rng, tag, n, ("a", "b")[:letters])
    out = list(aut.out)
    rows = [[list(r) for r in m.rows] for m in aut.trans]
    for _ in range(rng.randint(1, 3)):
        value = rng.choice([F(1, 2), F(-1), F(-1, 3), F(1), F(3, 2), F(2, 3), F(7, BIG)])
        if rng.random() < 0.2:
            out[rng.randrange(n)] = value
        else:
            rows[rng.randrange(letters)][rng.randrange(n)][rng.randrange(n)] = value
    return vector(out), tuple(Mat(r, ncols=n) for r in rows)


def outcome(check, tag, out, trans):
    try:
        check(tag, out, trans)
    except TagViolation as exc:
        return str(exc), exc.cells
    return None


@pytest.mark.parametrize("tag", list(T), ids=lambda t: t.value)
def test_check_weights_matches_fraction_rules(tag):
    rng = random.Random(f"weights/{tag.value}")
    kinds = set()
    for _ in range(400):
        out, trans = planted(rng, tag)
        got = outcome(check_weights, tag, out, trans)
        assert got == outcome(weights_oracle.check_weights, tag, out, trans)
        kinds.add(got and got[0].split(" ")[0])
    expected = {None}
    if tag.integral or tag.nonneg:
        expected |= {"output", "entry"}
    if tag is T.UNIT:
        expected.add("column")
    if tag is T.PCA:
        expected.add("state")
    assert kinds == expected


# ---------------------------------------------------------------------------
# the verifier against the Fraction checks


def checks(report):
    return [(c.name, c.ok, c.detail) for c in report.checks]


def assert_same_reports(z):
    """Every witness of `report_witnesses(z)` gets the oracle's report;
    returns how many of them were valid."""
    valid = 0
    for label, w in report_witnesses(z):
        got, want = verify_zigzag(w), verify_oracle.verify_zigzag(w)
        assert checks(got) == checks(want), label
        assert got.valid == want.valid
        valid += got.valid
    return valid


def build(*pair):
    return (ghat_zigzag if pair[0].tag is T.PCA else cubic_zigzag)(*pair)


# bench-size lifted pairs: one letter for ghat-pca and restrict-unary, two
# for the ring tags of words-deep, one or two for span-desk
BENCH_SIZES = {
    T.PCA: (((4, 0), (4, 1), (5, 0), (3, 1), (5, 1)), 1),
    T.UNIT: (((3, 1), (3, 2), (4, 1), (2, 3)), 1),
    T.RPLUS: (((3, 1), (3, 2), (4, 1), (2, 3)), 1),
    T.NAT: (((2, 1), (2, 2), (2, 3), (1, 3)), 1),
    T.QPLUS: (((2, 1), (2, 2), (2, 3), (1, 3)), 1),
    T.Q: (((2, 1), (2, 2), (3, 0), (3, 1), (2, 3)), 2),
    T.INT: (((2, 1), (2, 2), (3, 0), (3, 1), (2, 3)), 2),
    T.REAL: (((2, 1), (2, 2), (3, 0), (3, 1), (2, 3)), 2),
}


@pytest.mark.parametrize("tag", list(T), ids=lambda t: t.value)
def test_verifier_matches_oracle_at_bench_sizes(tag):
    sizes, letters = BENCH_SIZES[tag]
    rng = random.Random(f"integer-verifier/{tag.value}")
    witnesses = 0
    for k, extra in sizes:
        for alphabet in dict.fromkeys([("a",), ("a", "b")[:letters]]):
            z = build(*lifted_pair(rng, tag, k, extra, alphabet))
            assert assert_same_reports(z) >= 1
            witnesses += 1
    assert witnesses >= len(sizes)


def fractional_witnesses(z):
    """Mutations of z whose images leave the integers: halve column 0 of each
    morphism, and add e_0 / 2 to each relating element."""
    for k, mor in enumerate(z.morphisms):
        m = mor.matrix
        if m.ncols:
            morphisms = list(z.morphisms)
            morphisms[k] = replace(mor, matrix=Mat([(r[0] / 2,) + r[1:] for r in m.rows],
                                                   ncols=m.ncols))
            yield replace(z, morphisms=tuple(morphisms))
    for j, (i, v) in enumerate(z.relating):
        if v:
            relating = list(z.relating)
            relating[j] = (i, (v[0] + F(1, 2),) + v[1:])
            yield replace(z, relating=tuple(relating))


@pytest.mark.parametrize("tag", [T.NAT, T.INT], ids=lambda t: t.value)
def test_fractional_images_into_integral_carriers(tag):
    rng = random.Random(f"fractional/{tag.value}")
    verdicts = set()
    for k, extra in ((1, 1), (2, 1), (2, 2), (3, 0)):
        z = cubic_zigzag(*lifted_pair(rng, tag, k, extra, ("a", "b")))
        for w in fractional_witnesses(z):
            got = verify_zigzag(w)
            assert checks(got) == checks(verify_oracle.verify_zigzag(w))
            verdicts.update((c.name.split("[")[0], c.ok) for c in got.checks)
    assert {("morphism-carrier", False), ("relating", False)} <= verdicts


def dead_pca():
    """Zero output on an invariant state: the ghat witness reduces it away."""
    return WeightedAutomaton(tag=T.PCA, n=1, alphabet=("a",), out=zeros(1),
                             trans=(Mat([[1]]),))


class TestEdgeCases:
    def test_dim_zero_nodes_and_zero_column_morphisms(self):
        z = ghat_zigzag(dead_pca(), vector([1]), dead_pca(), vector(["1/2"]))
        assert [n.dim for n in z.nodes[1:4]] == [0, 0, 0]
        assert [m.matrix.ncols for m in z.morphisms] == [1, 0, 0, 1]
        assert [m.matrix.nrows for m in z.morphisms] == [0, 0, 0, 0]
        assert assert_same_reports(z) >= 1

    @pytest.mark.parametrize("tag", [t for t in T if t is not T.PCA], ids=lambda t: t.value)
    def test_nodes_without_generators(self, tag):
        rng = random.Random(f"no-generators/{tag.value}")
        aut1, _, aut2, _ = lifted_pair(rng, tag, 2, 1, ("a", "b"))
        z = cubic_zigzag(aut1, zeros(aut1.n), aut2, zeros(aut2.n))
        assert z.nodes[1].generators == ()
        assert assert_same_reports(z) >= 1

    def test_pca_node_without_generators(self):
        aut = WeightedAutomaton(tag=T.PCA, n=2, alphabet=("a",), out=vector(["1/2", "1/3"]),
                                trans=(Mat([["1/4", 0], [0, "1/3"]]),))
        z = ghat_zigzag(aut, zeros(2), aut, zeros(2))
        assert z.nodes[2].generators == ()
        assert assert_same_reports(z) >= 1

    @pytest.mark.parametrize("tag", [t for t in T if not t.integral], ids=lambda t: t.value)
    def test_coprime_row_denominators(self, tag):
        """Row i of each letter matrix is over 11 p_i for its own prime p_i."""
        primes, n = (3, 5, 7), 3

        def entry(i, j, a):
            return F((i + 2 * j + a) % 3 if tag.nonneg else (i - j + a) % 3 - 1,
                     11 * primes[i])

        small = WeightedAutomaton(
            tag=tag, n=n, alphabet=("a", "b"), out=vector([F(1, 13 * p) for p in primes]),
            trans=tuple(Mat([[entry(i, j, a) for j in range(n)] for i in range(n)])
                        for a in range(2)))
        x = vector([F(1, p) for p in primes])
        for r_cols, x_big in (([], x), ([vector([F(1, 5), 0, F(1, 7)])], x + (F(1, 11),))):
            z = build(*lift(small, r_cols, x_big))
            assert assert_same_reports(z) >= 1

    @pytest.mark.parametrize("tag", [T.Q, T.REAL, T.QPLUS, T.RPLUS, T.UNIT, T.PCA],
                             ids=lambda t: t.value)
    def test_denominators_up_to_10_12(self, tag):
        rng = random.Random(f"big-denominators/{tag.value}")
        for n, extra in ((1, 1), (2, 1), (2, 2)):
            if tag in (T.Q, T.REAL):
                def entry():
                    return F(rng.randint(-BIG, BIG), rng.randint(1, BIG))
                trans = tuple(Mat([[entry() for _ in range(n)] for _ in range(n)])
                              for _ in range(2))
                out = vector([entry() for _ in range(n)])
                r_cols = [vector([entry() for _ in range(n)]) for _ in range(extra)]
                x_big = vector([entry() for _ in range(n + extra)])
            else:
                # a column, or a state's mass, of at most 1 - 1/BIG
                def column(slots):
                    raw = [rng.randint(0, BIG) for _ in range(slots)]
                    total = sum(raw) + rng.randint(1, BIG)
                    return [F(a, total) for a in raw]

                cols = [column(2 * n + 1) for _ in range(n)]
                out = vector([c[0] for c in cols]) if tag is T.PCA else vector(
                    [F(rng.randint(0, BIG), BIG) for _ in range(n)])
                trans = tuple(Mat.from_cols([c[1 + a * n:1 + (a + 1) * n] for c in cols],
                                            nrows=n) for a in range(2))
                r_cols = [vector(column(n)) for _ in range(extra)]
                x_big = vector(column(n + extra))
            small = WeightedAutomaton(tag=tag, n=n, alphabet=("a", "b"), out=out, trans=trans)
            z = build(*lift(small, r_cols, x_big))
            assert assert_same_reports(z) >= 1
