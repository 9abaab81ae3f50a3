"""Differential tests of the integer-image paths against their `Fraction`
oracles: `scaled_dot`, the integer dot product that replaced `vdot`, against
the entrywise dot, `check_weights` against the
`Fraction` weight rules on planted violations, `fmt_rat` against
`str(Fraction(x))`, and `verify_zigzag` against `tests/verify_oracle.py`,
check by check on (name, verdict, detail), on valid and mutated witnesses of
all eight tags and on edge cases: fractional images into integral carriers,
dimension-0 nodes, nodes without generators, zero-column morphisms, rows
with coprime denominators and denominators up to 10**12.  The oracle's last
check, `trace-agreement`, has no counterpart in the verifier, whose report
must fail some check wherever that check fails."""

import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import chain

import pytest

import verify_oracle
import weights_oracle
from matvec_oracle import entrywise_dot, fraction_rows, fractions, from_cols, svec, vector
from wazz import pca
from wazz.automata import SemiringTag, TagViolation, WeightedAutomaton, check_weights, trace
from wazz.formats import fmt_rat
from wazz.linalg import Mat, scaled, scaled_dot
from wazz.polyhedra import INFINITY
from wazz.zigzag import (_images, cubic_zigzag, five_node_zigzag, ghat_zigzag, span_zigzag,
                         verify_zigzag)

from genrandom import (lift, lifted_pair, negative_output_witnesses, rand_automaton,
                       report_witnesses, with_redundant_generators)
from span_oracle import RING_TAGS, ring_span_zigzag

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


def vdot(u, v):
    """<u, v> of rationals by `scaled_dot` on their scaled vectors."""
    num, den = scaled_dot(scaled(u), scaled(v))
    assert type(num) is int and type(den) is int and den > 0
    return F(num, den)


class TestVdot:
    """`scaled_dot`, the integer dot product of two scaled vectors, which
    replaced `vdot` on `Fraction` tuples."""

    @pytest.mark.parametrize("den_bound", [1, 9, BIG])
    def test_matches_entrywise_sum(self, den_bound):
        rng = random.Random(f"vdot/{den_bound}")
        for _ in range(500):
            n = rng.randint(0, 8)
            u = tuple(rand_entry(rng, den_bound) for _ in range(n))
            v = tuple(rand_entry(rng, den_bound) for _ in range(n))
            assert vdot(u, v) == entrywise_dot(u, v)

    def test_length_zero_and_ints(self):
        assert scaled_dot(scaled(()), scaled(())) == (0, 1)
        assert vdot((2, -3), (F(1, 2), 5)) == -14
        assert scaled_dot(scaled((2, -3)), scaled((4, 5))) == (-7, 1)

    def test_dimension_check(self):
        # the stages check a configuration's length before any dot product
        aut = WeightedAutomaton(tag=T.Q, n=2, alphabet=("a",), out=svec([1, 2]),
                                trans=(Mat([[1, 0], [0, 1]]),))
        for depth in (0, 1):
            with pytest.raises(ValueError, match="configuration has wrong length"):
                trace(aut, svec([1, 2, 3]), depth)


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
    out = list(fractions(aut.out))
    rows = [[list(r) for r in fraction_rows(m)] for m in aut.trans]
    for _ in range(rng.randint(1, 3)):
        value = rng.choice([F(1, 2), F(-1), F(-1, 3), F(1), F(3, 2), F(2, 3), F(7, BIG)])
        if rng.random() < 0.2:
            out[rng.randrange(n)] = value
        else:
            rows[rng.randrange(letters)][rng.randrange(n)][rng.randrange(n)] = value
    return scaled(out), tuple(Mat(r, ncols=n) for r in rows)


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


def assert_matches_oracle(got, want, label=None):
    """The verifier's report is the oracle's without its `trace-agreement`
    check, and fails wherever that check fails."""
    want_checks = checks(want)
    if want_checks[-1][0] == "trace-agreement":
        want_checks.pop()
    assert checks(got) == want_checks, label
    assert got.valid == want.valid, label


def assert_oracle_report(w, label=None):
    """`assert_matches_oracle` on w's two reports; returns the verifier's."""
    got = verify_zigzag(w)
    assert_matches_oracle(got, verify_oracle.verify_zigzag(w), label)
    return got


def assert_same_reports(z):
    """Every witness of `report_witnesses(z)` gets the oracle's report;
    returns how many of them were valid."""
    return sum(assert_oracle_report(w, label).valid for label, w in report_witnesses(z))


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
    """Each witness is checked as built, where most generated carriers have
    independent generators and are decided by their coordinates, and again
    with one redundant generator appended to each generated carrier, which
    sends a hull or cone to its facets, `int` to lattice reduction and `nat`
    to the N-monoid search.  The oracle's gauges and cone tests are the
    ambient ones and it searches every `nat` carrier, so both routes are
    compared with the same reports."""
    sizes, letters = BENCH_SIZES[tag]
    rng = random.Random(f"integer-verifier/{tag.value}")
    witnesses = 0
    for k, extra in sizes:
        for alphabet in dict.fromkeys([("a",), ("a", "b")[:letters]]):
            z = build(*lifted_pair(rng, tag, k, extra, alphabet))
            redundant = with_redundant_generators(z)
            assert verify_zigzag(redundant).valid
            assert assert_same_reports(z) >= 1
            assert assert_same_reports(redundant) >= 1
            witnesses += 1
    assert witnesses >= len(sizes)


def fractional_witnesses(z):
    """Mutations of z whose images leave the integers: halve column 0 of each
    morphism, and add e_0 / 2 to each relating element."""
    for k, mor in enumerate(z.morphisms):
        m = mor.matrix
        if m.ncols:
            morphisms = list(z.morphisms)
            morphisms[k] = replace(mor, matrix=Mat([(r[0] / 2,) + r[1:] for r in fraction_rows(m)],
                                                   ncols=m.ncols))
            yield replace(z, morphisms=tuple(morphisms))
    for j, (i, v) in enumerate(z.relating):
        if v[1]:
            relating = list(z.relating)
            v = fractions(v)
            relating[j] = (i, scaled((v[0] + F(1, 2),) + v[1:]))
            yield replace(z, relating=tuple(relating))


@pytest.mark.parametrize("tag", [T.NAT, T.INT], ids=lambda t: t.value)
def test_fractional_images_into_integral_carriers(tag):
    rng = random.Random(f"fractional/{tag.value}")
    verdicts = set()
    for k, extra in ((1, 1), (2, 1), (2, 2), (3, 0)):
        z = cubic_zigzag(*lifted_pair(rng, tag, k, extra, ("a", "b")))
        for w in fractional_witnesses(z):
            got = assert_oracle_report(w)
            verdicts.update((c.name.split("[")[0], c.ok) for c in got.checks)
    assert {("morphism-carrier", False), ("relating", False)} <= verdicts


def dead_pca():
    """Zero output on an invariant state: the ghat witness reduces it away."""
    return WeightedAutomaton(tag=T.PCA, n=1, alphabet=("a",), out=svec([0]),
                             trans=(Mat([[1]]),))


class TestEdgeCases:
    def test_dim_zero_nodes_and_zero_column_morphisms(self):
        z = five_node_zigzag(dead_pca(), svec([1]), dead_pca(), svec(["1/2"]))
        assert [n.dim for n in z.nodes[1:4]] == [0, 0, 0]
        assert [m.matrix.ncols for m in z.morphisms] == [1, 0, 0, 1]
        assert [m.matrix.nrows for m in z.morphisms] == [0, 0, 0, 0]
        assert assert_same_reports(z) >= 1

    @pytest.mark.parametrize("tag", [t for t in T if t is not T.PCA], ids=lambda t: t.value)
    def test_nodes_without_generators(self, tag):
        # a span's middle node: the ring tags' producer writes a cospan
        build = ring_span_zigzag if tag in RING_TAGS else span_zigzag
        rng = random.Random(f"no-generators/{tag.value}")
        aut1, _, aut2, _ = lifted_pair(rng, tag, 2, 1, ("a", "b"))
        z = build(aut1, svec([0] * aut1.n), aut2, svec([0] * aut2.n))
        assert z.nodes[1].generators == ()
        assert assert_same_reports(z) >= 1

    def test_pca_node_without_generators(self):
        aut = WeightedAutomaton(tag=T.PCA, n=2, alphabet=("a",), out=svec(["1/2", "1/3"]),
                                trans=(Mat([[F("1/4"), 0], [0, F("1/3")]]),))
        z = five_node_zigzag(aut, svec([0, 0]), aut, svec([0, 0]))
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
            tag=tag, n=n, alphabet=("a", "b"), out=svec([F(1, 13 * p) for p in primes]),
            trans=tuple(Mat([[entry(i, j, a) for j in range(n)] for i in range(n)])
                        for a in range(2)))
        x = vector([F(1, p) for p in primes])
        for r_cols, x_big in (([], x), ([vector([F(1, 5), 0, F(1, 7)])], x + (F(1, 11),))):
            z = build(*lift(small, r_cols, scaled(x_big)))
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
                out = svec([entry() for _ in range(n)])
                r_cols = [vector([entry() for _ in range(n)]) for _ in range(extra)]
                x_big = vector([entry() for _ in range(n + extra)])
            else:
                # a column, or a state's mass, of at most 1 - 1/BIG
                def column(slots):
                    raw = [rng.randint(0, BIG) for _ in range(slots)]
                    total = sum(raw) + rng.randint(1, BIG)
                    return [F(a, total) for a in raw]

                cols = [column(2 * n + 1) for _ in range(n)]
                out = svec([c[0] for c in cols]) if tag is T.PCA else svec(
                    [F(rng.randint(0, BIG), BIG) for _ in range(n)])
                trans = tuple(from_cols([c[1 + a * n:1 + (a + 1) * n] for c in cols],
                                            nrows=n) for a in range(2))
                r_cols = [vector(column(n)) for _ in range(extra)]
                x_big = vector(column(n + extra))
            small = WeightedAutomaton(tag=tag, n=n, alphabet=("a", "b"), out=out, trans=trans)
            z = build(*lift(small, r_cols, scaled(x_big)))
            assert assert_same_reports(z) >= 1


# ---------------------------------------------------------------------------
# the subconvex budget on integer ratios


def test_ghat_breach_matches_fraction_oracle():
    """The integer budget sums ratios (p, q), q > 0, in any terms, as the
    verifier's gauges and output weights come; its verdict is the `Fraction`
    oracle's, and a breaching total stands for the oracle's total."""
    rng = random.Random("ghat-breach")

    def ratio(q):
        c = rng.choice([1, 1, 2, 6, BIG])  # unreduced terms, as scaled_dot gives
        return q.numerator * c, q.denominator * c

    kinds = set()
    for _ in range(3000):
        o = F(rng.randint(-3, 9), rng.choice([1, 2, 7, 9, BIG]))
        gauges = [INFINITY if rng.random() < 0.1
                  else F(rng.randint(0, 9), rng.choice([1, 3, 10, BIG]))
                  for _ in range(rng.randint(0, 3))]
        want = verify_oracle.ghat_breach(o, gauges, lambda g: g)
        got = pca.ghat_breach(ratio(o), gauges,
                              lambda g: g if g is INFINITY else ratio(g))
        if isinstance(want, F):
            assert type(got) is tuple and got[1] > 0 and F(*got) == want, (o, gauges)
            kinds.add("total")
        else:
            assert got == want, (o, gauges)
            kinds.add(want)
    assert kinds == {None, "output", "cone", "total"}


def test_pca_mutations_reach_every_coalgebra_detail():
    """On subconvex witnesses, `report_witnesses` reaches the cone and budget
    failures of `node-coalgebra` and `negative_output_witnesses` its negative
    output weight, each with the oracle's report."""
    rng = random.Random("coalgebra-details/pca")
    details = {"report": set(), "negative": set()}
    for k, extra in ((2, 1), (3, 1), (2, 2)):
        for alphabet in (("a",), ("a", "b")):
            z = ghat_zigzag(*lifted_pair(rng, T.PCA, k, extra, alphabet))
            for source, mutations in (("report", report_witnesses(z)),
                                      ("negative", negative_output_witnesses(z))):
                for label, w in mutations:
                    got = assert_oracle_report(w, label)
                    details[source].update(c.detail.split(" ")[0] for c in got.checks
                                           if c.name.startswith("node-coalgebra")
                                           and not c.ok)
    assert {"letter", "budget"} <= details["report"]
    assert "negative" in details["negative"]


@pytest.mark.parametrize("tag", list(T), ids=lambda t: t.value)
def test_verifier_applies_each_image_once(tag, monkeypatch):
    """On a valid witness the verifier forms no product for a generator with
    one nonzero entry, whose images it reads off the matrices' columns, and
    takes every other generator's letter and morphism images once: |Sigma|
    products per such generator and one per morphism out of its node.
    `morphism-square` forms none, comparing f (M g) with M' (f g) row by row,
    and each morphism into a sink takes one (the image of a relating element
    for `chain`).  It builds no `Fraction`: a failure detail quotes its
    values from integers."""
    rng = random.Random(f"images-once/{tag.value}")
    witnesses = [build(*lifted_pair(rng, tag, k, extra, alphabet))
                 for k, extra in ((2, 1), (3, 1)) for alphabet in (("a",), ("a", "b"))]
    calls = []
    original = Mat.apply_scaled
    monkeypatch.setattr(Mat, "apply_scaled",
                        lambda self, x: calls.append(self) or original(self, x))
    built, new = [], F.__new__
    monkeypatch.setattr(F, "__new__", lambda cls, *args, **kw: built.append(args)
                        or new(cls, *args, **kw))
    for z in witnesses:
        calls.clear()
        assert verify_zigzag(z).valid
        letters = len(z.alphabet)
        multiplied = [sum(sum(1 for a in ints if a) != 1 for _, ints in node.generators)
                      for node in z.nodes]
        sinks = {mor.dst for mor in z.morphisms} - {mor.src for mor in z.morphisms}
        into_sinks = sum(mor.dst in sinks for mor in z.morphisms)
        assert len(calls) == (sum(k * letters for k in multiplied)
                              + sum(multiplied[mor.src] for mor in z.morphisms)
                              + into_sinks)
    assert built == []


@pytest.mark.parametrize("den_bound", [1, 9, BIG])
def test_column_images_match_apply_scaled(den_bound):
    """`_images` reads a one-entry generator's images off the columns of its
    matrices; `Mat.apply_scaled` is the oracle, and each image must equal its
    product exactly, (den, ints) and their types alike: on random matrices
    with rational entries, some with an all-zero column, on generators c e_j
    with c of either sign and on 0-dimensional nodes, whose matrices have no
    rows or columns.  Generators with no or several nonzero entries take
    `apply_scaled` itself."""
    rng = random.Random(f"column-images/{den_bound}")
    for _ in range(60):
        nrows, ncols = rng.randint(0, 4), rng.randint(0, 4)
        mats = []
        for _ in range(rng.randint(1, 3)):
            zero = rng.randrange(ncols) if ncols and rng.random() < 0.3 else None
            mats.append(from_cols([[0 if j == zero else rand_entry(rng, den_bound)
                                    for _ in range(nrows)] for j in range(ncols)], nrows))
        gens = [(d, tuple(c if i == j else 0 for i in range(ncols)))
                for j in range(ncols)
                for c, d in ((rng.randint(1, 30), 1), (-rng.randint(1, 30), 7),
                             (rng.choice((-1, 1)) * rng.randint(1, BIG), rng.randint(1, BIG)))]
        gens += [scaled([rand_entry(rng, den_bound) for _ in range(ncols)]) for _ in range(3)]
        rng.shuffle(gens)
        columns = {}
        got = _images(mats, gens, columns)
        assert got == [[m.apply_scaled(g) for m in mats] for g in gens]
        assert {(type(d), type(ints)) for images in got for d, ints in images} <= {(int, list)}
        assert set(columns) <= {id(m) for m in mats}
        # a second list of generators reads the columns already read
        assert _images(mats, gens[::-1], columns) == got[::-1]


@pytest.mark.parametrize("tag", [T.NAT, T.INT, T.Q, T.REAL], ids=lambda t: t.value)
def test_free_carriers_factor_without_rref(tag, monkeypatch):
    """The verifier factors carriers on integers alone: with `rref` (and so
    `solve` and `kernel_basis`) unavailable, the witnesses of the tags whose
    carriers need no facets still verify, mutated ones still fail, and the
    reports are the oracle's."""
    from wazz import linalg

    def forbidden(*args):
        raise AssertionError("the verifier called rref")

    rng = random.Random(f"no-rref/{tag.value}")
    witnesses = [w for k, extra in ((1, 1), (2, 1), (3, 2))
                 for w in report_witnesses(cubic_zigzag(*lifted_pair(rng, tag, k, extra,
                                                                      ("a", "b"))))]
    want = [verify_oracle.verify_zigzag(w) for _, w in witnesses]
    monkeypatch.setattr(linalg, "rref", forbidden)
    for (label, w), oracle in zip(witnesses, want):
        assert_matches_oracle(verify_zigzag(w), oracle, label)
    assert {label for label, _ in witnesses} > {"valid"}
