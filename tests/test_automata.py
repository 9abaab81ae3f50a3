import random
from fractions import Fraction as F
from functools import partial

import pytest

from wazz.automata import (NotEquivalent, SemiringTag, WeightedAutomaton,
                           automaton_to_text, equivalent, pair_submodule,
                           parse_automaton, separating_word, step, trace)
from wazz.formats import ParseError
from wazz.linalg import Mat, unit

from genrandom import lifted_pair, rand_automaton, rand_config
from matvec_oracle import column, fractions, identity, sconcat, svec, vector
from weights_oracle import scalar_ok

T = SemiringTag


def half_loop():
    """1 state, out 1/2, a-loop of weight 1/2."""
    return WeightedAutomaton(tag=T.QPLUS, n=1, alphabet=("a",),
                             out=svec(["1/2"]), trans=(Mat([[F("1/2")]]),))


def swap_pair():
    """2 states, out (1/2,1/2), a swaps the states with weight 1/2."""
    return WeightedAutomaton(tag=T.QPLUS, n=2, alphabet=("a",),
                             out=svec(["1/2", "1/2"]),
                             trans=(Mat([[0, F("1/2")], [F("1/2"), 0]]),))


class TestStepTrace:
    def test_scalar_step(self):
        aut = half_loop()
        assert step(aut, svec([1]), "a") == svec(["1/2"])

    def test_zero_config(self):
        assert step(swap_pair(), svec([0, 0]), "a") == svec([0, 0])

    def test_identity_matrix(self):
        aut = WeightedAutomaton(tag=T.Q, n=2, alphabet=("a",),
                                out=svec([1, 0]), trans=(identity(2),))
        x = svec(["2/3", 5])
        assert step(aut, x, "a") == x

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            step(half_loop(), svec([1]), "b")

    def test_trace_halving(self):
        aut = WeightedAutomaton(tag=T.QPLUS, n=1, alphabet=("a",),
                                out=svec([1]), trans=(Mat([[F("1/2")]]),))
        tr = trace(aut, svec([1]), 2)
        assert tr[()] == 1
        assert tr[("a",)] == F(1, 2)
        assert tr[("a", "a")] == F(1, 4)

    def test_trace_zero_cases(self):
        aut = swap_pair()
        assert all(v == 0 for _, v in trace(aut, svec([0, 0]), 3).items())
        dead = WeightedAutomaton(tag=T.QPLUS, n=2, alphabet=("a",),
                                 out=svec([0, 0]), trans=aut.trans)
        assert all(v == 0 for _, v in trace(dead, svec([1, 0]), 3).items())


class TestPairing:
    def test_identical_automata(self):
        aut = swap_pair()
        basis, paired = pair_submodule(aut, unit(2, 0), aut, unit(2, 0))
        for g in map(fractions, basis):
            assert g[:2] == g[2:]  # the diagonal

    def test_worked_pair(self):
        basis, paired = pair_submodule(half_loop(), svec([1]), swap_pair(), unit(2, 0))
        assert basis == [svec([1, 1, 0]), svec(["1/2", 0, "1/2"])]
        tr = trace(paired, svec([1, 1, 0]), 3)
        assert tr == trace(half_loop(), svec([1]), 3)
        assert tr == trace(swap_pair(), unit(2, 0), 3)

    def test_tampered_output(self):
        bad = WeightedAutomaton(tag=T.QPLUS, n=2, alphabet=("a",),
                                out=svec(["1/2", 1]), trans=swap_pair().trans)
        with pytest.raises(NotEquivalent) as err:
            pair_submodule(half_loop(), svec([1]), bad, unit(2, 0))
        assert err.value.word == ("a",)

    def test_not_equivalent_needs_a_word(self):
        # a rejection without a word must fail where it is raised
        with pytest.raises(TypeError):
            NotEquivalent("traces differ")


class TestEquivalent:
    def test_worked_pair_true(self):
        # oracle: traces to depth n1+n2 agree
        d = 3
        assert trace(half_loop(), svec([1]), d) == trace(swap_pair(), unit(2, 0), d)
        res = equivalent(half_loop(), svec([1]), swap_pair(), unit(2, 0))
        assert res.equivalent and res.basis

    def test_self_equivalence(self):
        aut = swap_pair()
        assert equivalent(aut, unit(2, 0), aut, unit(2, 0)).equivalent

    def test_output_mismatch_word_epsilon(self):
        one = WeightedAutomaton(tag=T.NAT, n=1, alphabet=("a",),
                                out=svec([1]), trans=(Mat([[0]]),))
        zero = WeightedAutomaton(tag=T.NAT, n=1, alphabet=("a",),
                                 out=svec([0]), trans=(Mat([[0]]),))
        res = equivalent(one, svec([1]), zero, svec([1]))
        assert not res.equivalent and res.word == ()

    def test_tampered_pair_word_a(self):
        bad = WeightedAutomaton(tag=T.QPLUS, n=2, alphabet=("a",),
                                out=svec(["1/2", 1]), trans=swap_pair().trans)
        res = equivalent(half_loop(), svec([1]), bad, unit(2, 0))
        assert not res.equivalent and res.word == ("a",)

    @pytest.mark.parametrize("tag", list(T))
    def test_matches_depth_oracle(self, tag):
        rng = random.Random("oracle-" + tag.value)
        for i in range(60):
            alphabet = ("a", "b")[: rng.randint(1, 2)]
            if i % 2:
                n1 = rng.randint(1, 3)
                aut1 = rand_automaton(rng, tag, n1, alphabet)
                n2 = rng.randint(1, 3)
                aut2 = rand_automaton(rng, tag, n2, alphabet)
                x1 = rand_config(rng, tag, n1)
                x2 = rand_config(rng, tag, n2)
            else:
                aut1, x1, aut2, x2 = lifted_pair(rng, tag, rng.randint(1, 2),
                                                 rng.randint(0, 2), alphabet)
            depth = aut1.n + aut2.n
            oracle = trace(aut1, x1, depth) == trace(aut2, x2, depth)
            res = equivalent(aut1, x1, aut2, x2)
            assert res.equivalent == oracle
            if not res.equivalent:
                d = len(res.word)
                assert trace(aut1, x1, d)[res.word] != trace(aut2, x2, d)[res.word]

    def test_lifted_pairs_always_equivalent(self):
        rng = random.Random(71)
        for tag in T:
            for _ in range(10):
                aut1, x1, aut2, x2 = lifted_pair(rng, tag, rng.randint(1, 2),
                                                 rng.randint(1, 2), ("a", "b"))
                assert equivalent(aut1, x1, aut2, x2).equivalent


class TestExtendScalars:
    """The pair coalgebra that `pair_submodule` returns: the untagged
    block-diagonal map of both sides, with the traces of each."""

    def test_tag_map(self):
        rng = random.Random(73)
        for tag in T:
            aut1, x1, aut2, x2 = lifted_pair(rng, tag, 2, 1, ("a",))
            _, paired = pair_submodule(aut1, x1, aut2, x2)
            assert paired == aut1.paired(aut2)
            tr = trace(paired, sconcat(x1, x2), 4)
            assert tr == trace(aut1, x1, 4) == trace(aut2, x2, 4)


class TestCubicTupleFormer:
    """Membership identities of the cubic tuple former on finite sets."""

    def _member(self, scalar_ok, carrier, element):
        o, parts = element
        return scalar_ok(o) and all(p in carrier for p in parts)

    def test_intersection_identity(self):
        rng = random.Random(79)
        sub, ring = T.QPLUS, T.Q
        for _ in range(200):
            universe = [vector([rng.randint(-2, 2)]) for _ in range(6)]
            x_set = set(rng.sample(universe, 3))
            y_set = set(rng.sample(universe, 3))
            o = F(rng.randint(-2, 2), rng.randint(1, 2))
            parts = tuple(rng.choice(universe) for _ in range(2))
            elem = (o, parts)
            lhs = (self._member(partial(scalar_ok, ring), x_set, elem)
                   and self._member(partial(scalar_ok, sub), y_set, elem))
            rhs = self._member(partial(scalar_ok, sub), x_set & y_set, elem)
            assert lhs == rhs

    def test_projection_preimage_identity(self):
        rng = random.Random(83)
        sub, ring = T.QPLUS, T.Q
        for _ in range(200):
            pool1 = [vector([rng.randint(-2, 2)]) for _ in range(4)]
            pool2 = [vector([rng.randint(-2, 2)]) for _ in range(4)]
            y1 = set(rng.sample(pool1, 2))
            y2 = set(rng.sample(pool2, 2))
            o = F(rng.randint(-2, 2), rng.randint(1, 2))
            pairs = tuple((rng.choice(pool1), rng.choice(pool2)) for _ in range(2))
            elem1 = (o, tuple(p[0] for p in pairs))
            elem2 = (o, tuple(p[1] for p in pairs))
            lhs = (self._member(partial(scalar_ok, sub), y1, elem1)
                   and self._member(partial(scalar_ok, sub), y2, elem2))
            rhs = self._member(partial(scalar_ok, sub), set((a, b) for a in y1 for b in y2),
                               (o, pairs))
            assert lhs == rhs


class TestFileFormat:
    SAMPLE = """\
# a two-state machine
semiring qplus
alphabet a
states 2
output 1/2 1/2
trans a
0 1/2
1/2 0
state 1 0
"""

    def test_parse(self):
        aut, state = parse_automaton(self.SAMPLE, "sample.wa")
        assert aut == swap_pair()
        assert state == svec([1, 0])

    def test_roundtrip(self):
        rng = random.Random(89)
        for tag in T:
            aut = rand_automaton(rng, tag, rng.randint(1, 3), ("a", "b"))
            x = rand_config(rng, tag, aut.n)
            text = automaton_to_text(aut, x)
            aut2, x2 = parse_automaton(text)
            assert aut2 == aut and x2 == x
            assert automaton_to_text(aut2, x2) == text

    def test_column_convention(self):
        text = ("semiring q\nalphabet a\nstates 2\noutput 1 0\n"
                "trans a\n0 1\n0 0\n")
        aut, _ = parse_automaton(text)
        # row 1 of the file is the image of e_1, stored as column 1
        assert column(aut.mat("a"), 0) == vector([0, 1])

    @pytest.mark.parametrize("mutation, lineno", [
        ("semiring foo", 1),
        ("alphabet a a", 2),
        ("states x", 3),
        ("output 1/2", 4),
        ("output 1/2 0.5", 4),
    ])
    def test_errors_carry_line_numbers(self, mutation, lineno):
        lines = self.SAMPLE.splitlines()
        lines[lineno] = mutation  # line 0 is the comment
        with pytest.raises(ParseError) as err:
            parse_automaton("\n".join(lines), "bad.wa")
        assert err.value.source == "bad.wa"
        assert err.value.line == lineno + 1

    def test_tag_violation(self):
        text = ("semiring nat\nalphabet a\nstates 1\noutput 1\ntrans a\n1/2\n")
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        assert err.value.line == 6

    @pytest.mark.parametrize("text, lineno, message", [
        # blocks out of alphabet order: the entry's own row is named
        ("semiring nat\nalphabet a b\nstates 2\noutput 1 0\ntrans b\n1 0\n0 -1\n"
         "trans a\n0 0\n1 1\n", 7, "entry -1 violates tag nat"),
        ("semiring qplus\nalphabet a\nstates 1\noutput -1\ntrans a\n0\n", 4,
         "output entry -1 violates tag qplus"),
        ("semiring unit\nalphabet a b\nstates 2\noutput 1 0\ntrans b\n1/2 0\n0 1\n"
         "# a comment\ntrans a\n0 0\n1 1/2\n", 11,
         "column sums must stay within 1 for unit tag"),
        # the mass of state 1 is complete at its row of the last block read
        ("semiring pca\nalphabet a b\nstates 2\noutput 1/2 0\ntrans a\n1/4 1/8\n0 0\n"
         "trans b\n1/4 0\n0 0\nstate 1 0\n", 9,
         "state 1: output plus transition mass exceeds 1"),
    ])
    def test_weight_rules_name_their_line(self, text, lineno, message):
        with pytest.raises(ParseError) as err:
            parse_automaton(text, "w.wa")
        assert (err.value.line, err.value.message) == (lineno, message)

    @pytest.mark.parametrize("tag, entry", [("nat", "1/2"), ("nat", "-1"), ("int", "1/3"),
                                            ("qplus", "-1/2"), ("unit", "2"), ("pca", "3/2")])
    def test_state_violating_tag(self, tag, entry):
        text = (f"semiring {tag}\nalphabet a\nstates 2\noutput 0 0\ntrans a\n0 0\n0 0\n"
                f"# the distinguished configuration\nstate 0 {entry}\n")
        with pytest.raises(ParseError) as err:
            parse_automaton(text, "state.wa")
        assert (err.value.source, err.value.line) == ("state.wa", 9)
        assert f"state entry {entry} violates tag {tag}" in err.value.message

    def test_missing_block(self):
        text = "semiring q\nalphabet a b\nstates 1\noutput 1\ntrans a\n0\n"
        with pytest.raises(ParseError):
            parse_automaton(text)


class TestTraceNaturality:
    def test_paired_traces_match(self):
        rng = random.Random(97)
        for tag in (T.NAT, T.QPLUS, T.UNIT, T.PCA):
            for _ in range(10):
                aut1, x1, aut2, x2 = lifted_pair(rng, tag, rng.randint(1, 2),
                                                 rng.randint(0, 2), ("a", "b"))
                basis, paired = pair_submodule(aut1, x1, aut2, x2)
                depth = aut1.n + aut2.n
                tr = trace(paired, sconcat(x1, x2), depth)
                assert tr == trace(aut1, x1, depth)
                assert tr == trace(aut2, x2, depth)
