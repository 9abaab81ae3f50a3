import random
import time
from fractions import Fraction as F

import pytest

from wazz.automata import NotEquivalent, SemiringTag, WeightedAutomaton, trace
from wazz.linalg import Mat, unit, vector, zeros
from wazz import zigzag
from wazz.zigzag import (CUBIC, FREE_MODULE, FREE_PCA, GENERATED_MODULE,
                         GENERATED_PCA, GHAT, Morphism, SearchBudgetExceeded, ZigZag,
                         ZigZagNode, _nat_monoid_member, cubic_zigzag, ghat_zigzag,
                         parse_zigzag, verify_zigzag, zigzag_to_text)

from genrandom import lifted_pair, rand_automaton, rand_config

T = SemiringTag


def qplus_pair():
    aut1 = WeightedAutomaton(tag=T.QPLUS, n=1, alphabet=("a",),
                             out=vector(["1/2"]), trans=(Mat([["1/2"]]),))
    aut2 = WeightedAutomaton(tag=T.QPLUS, n=2, alphabet=("a",),
                             out=vector(["1/2", "1/2"]),
                             trans=(Mat([[0, "1/2"], ["1/2", 0]]),))
    return aut1, vector([1]), aut2, unit(2, 0)


def pca_half_loop():
    return WeightedAutomaton(tag=T.PCA, n=1, alphabet=("a",),
                             out=vector(["1/2"]), trans=(Mat([["1/2"]]),))


def failing_names(report):
    return {c.name for c in report.failures()}


class TestCubic:
    def test_identical_nat_automata(self):
        rng = random.Random(201)
        aut = rand_automaton(rng, T.NAT, 2, ("a",))
        x = vector([1, 2])
        z = cubic_zigzag(aut, x, aut, x)
        assert len(z.nodes) == 3
        assert z.nodes[1].kind == GENERATED_MODULE
        # the diagonal element relates the endpoints
        assert z.relating_at(1) == tuple(x) + tuple(x)
        report = verify_zigzag(z)
        assert report.valid, failing_names(report)

    def test_worked_qplus_pair(self):
        z = cubic_zigzag(*qplus_pair())
        assert [n.kind for n in z.nodes] == [FREE_MODULE, GENERATED_MODULE, FREE_MODULE]
        # middle generators: hand reduction of span{(1,1,0),(1/2,0,1/2)} ∩ Q+^3
        assert set(z.nodes[1].generators) == {vector([1, 0, 1]), vector([1, 1, 0])}
        report = verify_zigzag(z)
        assert report.valid, failing_names(report)

    def test_not_equivalent(self):
        aut1, x1, aut2, x2 = qplus_pair()
        bad = WeightedAutomaton(tag=T.QPLUS, n=2, alphabet=("a",),
                                out=vector(["1/2", 1]), trans=aut2.trans)
        with pytest.raises(NotEquivalent) as err:
            cubic_zigzag(aut1, x1, bad, x2)
        assert err.value.word == ("a",)

    def test_pca_tag_rejected(self):
        aut = pca_half_loop()
        with pytest.raises(ValueError):
            cubic_zigzag(aut, vector([1]), aut, vector([1]))

    @pytest.mark.parametrize("tag", [T.NAT, T.INT, T.QPLUS, T.Q, T.RPLUS,
                                     T.REAL, T.UNIT])
    def test_random_equivalent_pairs(self, tag):
        rng = random.Random("zz-" + tag.value)
        for _ in range(8):
            aut1, x1, aut2, x2 = lifted_pair(rng, tag, rng.randint(1, 2),
                                             rng.randint(0, 2),
                                             ("a", "b")[: rng.randint(1, 2)])
            z = cubic_zigzag(aut1, x1, aut2, x2)
            assert len(z.nodes) == 3
            expected = GENERATED_PCA if tag is T.UNIT else GENERATED_MODULE
            assert z.nodes[1].kind == expected
            assert all(z.nodes[i].is_free for i in (0, 2))
            report = verify_zigzag(z)
            assert report.valid, (tag, failing_names(report))


class TestGhat:
    def test_worked_half_loop(self):
        aut = pca_half_loop()
        z = ghat_zigzag(aut, vector([1]), aut, vector([1]))
        assert len(z.nodes) == 5
        kinds = [n.kind for n in z.nodes]
        assert kinds == [FREE_PCA, FREE_PCA, GENERATED_PCA, FREE_PCA, FREE_PCA]
        assert z.nodes[2].generators == (vector([1, 1]),)
        report = verify_zigzag(z)
        assert report.valid, failing_names(report)

    def test_dead_coordinate_vs_quotient(self):
        big = WeightedAutomaton(tag=T.PCA, n=2, alphabet=("a",),
                                out=vector(["1/2", 0]),
                                trans=(Mat([["1/2", 0], [0, 1]]),))
        small = WeightedAutomaton(tag=T.PCA, n=1, alphabet=("a",),
                                  out=vector(["1/2"]), trans=(Mat([["1/2"]]),))
        z = ghat_zigzag(big, unit(2, 0), small, vector([1]))
        report = verify_zigzag(z)
        assert report.valid, failing_names(report)
        # the dead coordinate also relates to zero on the other side
        z2 = ghat_zigzag(big, unit(2, 1), small, zeros(1))
        report2 = verify_zigzag(z2)
        assert report2.valid, failing_names(report2)

    def test_not_equivalent(self):
        aut = pca_half_loop()
        other = WeightedAutomaton(tag=T.PCA, n=1, alphabet=("a",),
                                  out=vector(["1/4"]), trans=(Mat([["1/2"]]),))
        with pytest.raises(NotEquivalent) as err:
            ghat_zigzag(aut, vector([1]), other, vector([1]))
        assert err.value.word == ()

    def test_random_equivalent_pairs(self):
        rng = random.Random(211)
        for _ in range(10):
            aut1, x1, aut2, x2 = lifted_pair(rng, T.PCA, rng.randint(1, 2),
                                             rng.randint(0, 2),
                                             ("a", "b")[: rng.randint(1, 2)])
            z = ghat_zigzag(aut1, x1, aut2, x2)
            assert len(z.nodes) == 5
            assert z.nodes[1].kind == FREE_PCA and z.nodes[3].kind == FREE_PCA
            report = verify_zigzag(z)
            assert report.valid, failing_names(report)

    @pytest.mark.parametrize("k, extra", [(7, 1), (12, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lifted_pairs_at_scale(self, k, extra, seed):
        # the pyramid normal is one linear solve, so ghat_zigzag takes well
        # under a second here; the bound leaves room for a slow machine
        rng = random.Random(f"ghat-scale-{k}+{extra}-{seed}")
        aut1, x1, aut2, x2 = lifted_pair(rng, T.PCA, k, extra, ("a",))
        start = time.perf_counter()
        z = ghat_zigzag(aut1, x1, aut2, x2)
        elapsed = time.perf_counter() - start
        assert [node.dim for node in z.nodes[1:4]] == [k + extra, 2 * k + extra, k]
        report = verify_zigzag(z)
        assert report.valid, failing_names(report)
        assert elapsed < 5


class TestVerifierNegativeControls:
    def make(self):
        return cubic_zigzag(*qplus_pair())

    def test_tampered_morphism_entry(self):
        z = self.make()
        mor = z.morphisms[0]
        rows = [list(r) for r in mor.matrix.rows]
        rows[0][0] += 1
        tampered = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                          nodes=z.nodes,
                          morphisms=(Morphism(mor.src, mor.dst, Mat(rows)),
                                     z.morphisms[1]),
                          relating=z.relating, endpoints=z.endpoints)
        report = verify_zigzag(tampered)
        assert not report.valid
        assert any(name.startswith("morphism-square[0]")
                   or name.startswith("morphism-carrier[0]")
                   or name.startswith("chain")
                   for name in failing_names(report))
        assert any(name.startswith("morphism-") for name in failing_names(report))

    def test_removed_relating_element(self):
        z = self.make()
        tampered = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                          nodes=z.nodes, morphisms=z.morphisms,
                          relating=(), endpoints=z.endpoints)
        report = verify_zigzag(tampered)
        assert not report.valid
        names = failing_names(report)
        assert any(n.startswith("relating[") or n.startswith("chain[") for n in names)

    def test_tampered_node_kind_on_sink(self):
        z = self.make()
        sink = z.nodes[0]
        tampered_node = ZigZagNode(kind=GENERATED_MODULE, dim=sink.dim,
                                   generators=sink.generators, out=sink.out,
                                   trans=sink.trans)
        tampered = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                          nodes=(tampered_node,) + z.nodes[1:],
                          morphisms=z.morphisms, relating=z.relating,
                          endpoints=z.endpoints)
        report = verify_zigzag(tampered)
        assert not report.valid
        assert "node-kind[0]" in failing_names(report)

    def test_tampered_free_claim_with_dependent_generators(self):
        z = self.make()
        mid = z.nodes[1]
        fake = ZigZagNode(kind=FREE_MODULE, dim=mid.dim,
                          generators=mid.generators + (vector([2, 1, 1]),),
                          out=mid.out, trans=mid.trans)
        tampered = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                          nodes=(z.nodes[0], fake, z.nodes[2]),
                          morphisms=z.morphisms, relating=z.relating,
                          endpoints=z.endpoints)
        report = verify_zigzag(tampered)
        assert not report.valid
        assert "node-kind[1]" in failing_names(report)

    def test_tampered_endpoint(self):
        z = self.make()
        tampered = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                          nodes=z.nodes, morphisms=z.morphisms,
                          relating=z.relating,
                          endpoints=(z.endpoints[0], vector([0, 1])))
        report = verify_zigzag(tampered)
        assert not report.valid
        names = failing_names(report)
        assert any(n.startswith("chain") or n == "trace-agreement" for n in names)


class TestWitnessFormat:
    def test_roundtrip_cubic(self):
        z = cubic_zigzag(*qplus_pair())
        text = zigzag_to_text(z)
        back = parse_zigzag(text)
        assert back == z
        assert zigzag_to_text(back) == text

    def test_roundtrip_ghat(self):
        aut = pca_half_loop()
        z = ghat_zigzag(aut, vector([1]), aut, vector([1]))
        text = zigzag_to_text(z)
        back = parse_zigzag(text)
        assert back == z
        assert zigzag_to_text(back) == text

    def test_roundtrip_zero_dimensional_nodes(self):
        dead = WeightedAutomaton(tag=T.PCA, n=1, alphabet=("a",),
                                 out=zeros(1), trans=(Mat([[1]]),))
        z = ghat_zigzag(dead, vector([1]), dead, vector(["1/2"]))
        assert z.nodes[2].dim == 0
        report = verify_zigzag(z)
        assert report.valid, failing_names(report)
        back = parse_zigzag(zigzag_to_text(z))
        assert back == z

    def test_deterministic_output(self):
        a1, x1, a2, x2 = qplus_pair()
        assert zigzag_to_text(cubic_zigzag(a1, x1, a2, x2)) == \
            zigzag_to_text(cubic_zigzag(a1, x1, a2, x2))

    def test_verify_after_parse(self):
        z = cubic_zigzag(*qplus_pair())
        report = verify_zigzag(parse_zigzag(zigzag_to_text(z)))
        assert report.valid


class TestParseErrors:
    def test_bad_kind(self):
        from wazz.formats import ParseError
        text = zigzag_to_text(cubic_zigzag(*qplus_pair()))
        broken = text.replace("GENERATED_MODULE", "SHINY_MODULE")
        with pytest.raises(ParseError):
            parse_zigzag(broken)

    def test_morphism_out_of_range(self):
        from wazz.formats import ParseError
        text = zigzag_to_text(cubic_zigzag(*qplus_pair()))
        broken = text.replace("morphism 1 0", "morphism 1 9")
        with pytest.raises(ParseError):
            parse_zigzag(broken)

    def test_bad_rational(self):
        from wazz.formats import ParseError
        text = zigzag_to_text(cubic_zigzag(*qplus_pair()))
        broken = text.replace("out 1/2 0 0", "out 0.5 0 0")
        with pytest.raises(ParseError):
            parse_zigzag(broken)


class TestShapeChecks:
    def test_non_adjacent_morphism_rejected(self):
        z = cubic_zigzag(*qplus_pair())
        skewed = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                        nodes=z.nodes,
                        morphisms=(Morphism(1, 0, z.morphisms[0].matrix),
                                   Morphism(0, 2, Mat.zero(2, 1))),
                        relating=z.relating, endpoints=z.endpoints)
        report = verify_zigzag(skewed)
        assert not report.valid
        assert any(c.name == "shape" for c in report.failures())

    def test_mixed_direction_node_rejected(self):
        z = cubic_zigzag(*qplus_pair())
        flipped = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                         nodes=z.nodes,
                         morphisms=(z.morphisms[0],
                                    Morphism(2, 1, z.morphisms[1].matrix.transpose())),
                         relating=z.relating, endpoints=z.endpoints)
        report = verify_zigzag(flipped)
        assert not report.valid
        assert any(c.name == "shape" for c in report.failures())


class TestGhatNegativeControls:
    def make(self):
        aut = pca_half_loop()
        return ghat_zigzag(aut, vector([1]), aut, vector([1]))

    def rebuilt(self, z, **kw):
        fields = dict(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                      nodes=z.nodes, morphisms=z.morphisms,
                      relating=z.relating, endpoints=z.endpoints)
        fields.update(kw)
        return ZigZag(**fields)

    def test_overbudget_pyramid_node(self):
        z = self.make()
        u1 = z.nodes[1]
        bumped = ZigZagNode(kind=u1.kind, dim=u1.dim, generators=u1.generators,
                            out=tuple(q + 1 for q in u1.out), trans=u1.trans)
        report = verify_zigzag(self.rebuilt(z, nodes=(z.nodes[0], bumped) + z.nodes[2:]))
        assert not report.valid
        names = failing_names(report)
        assert any(n.startswith("node-coalgebra[1]") or n.startswith("morphism-square")
                   for n in names)

    def test_tampered_middle_relating(self):
        z = self.make()
        relating = tuple((i, v) if i != 2 else (2, vector([2, 2]))
                         for i, v in z.relating)
        report = verify_zigzag(self.rebuilt(z, relating=relating))
        assert not report.valid
        names = failing_names(report)
        assert any(n.startswith("relating[2]") or n.startswith("chain")
                   for n in names)

    def test_shrunk_pyramid_loses_morphism_carrier(self):
        z = self.make()
        u1 = z.nodes[1]
        shrunk = ZigZagNode(kind=u1.kind, dim=u1.dim,
                            generators=tuple(tuple(q / 2 for q in g)
                                             for g in u1.generators),
                            out=u1.out, trans=u1.trans)
        report = verify_zigzag(self.rebuilt(z, nodes=(z.nodes[0], shrunk) + z.nodes[2:]))
        assert not report.valid
        assert any(n.startswith("morphism-carrier") or n.startswith("node-coalgebra")
                   for n in failing_names(report))


class TestMalformedWitnesses:
    def test_negative_generator_reports_instead_of_crashing(self):
        aut = pca_half_loop()
        z = ghat_zigzag(aut, vector([1]), aut, vector([1]))
        mid = z.nodes[2]
        poisoned = ZigZagNode(kind=mid.kind, dim=mid.dim,
                              generators=mid.generators + (vector([-1, 0]),),
                              out=mid.out, trans=mid.trans)
        tampered = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                          nodes=z.nodes[:2] + (poisoned,) + z.nodes[3:],
                          morphisms=z.morphisms, relating=z.relating,
                          endpoints=z.endpoints)
        report = verify_zigzag(tampered)
        assert not report.valid
        assert "node-kind[2]" in failing_names(report)

    def test_duplicate_relating_entries_rejected(self):
        z = cubic_zigzag(*qplus_pair())
        doubled = z.relating + ((1, vector([0, 0, 0])),)
        tampered = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                          nodes=z.nodes, morphisms=z.morphisms,
                          relating=doubled, endpoints=z.endpoints)
        report = verify_zigzag(tampered)
        assert not report.valid
        assert "shape" in failing_names(report)


def box_monoid_member(gens, target):
    """Every N-combination of gens below target, enumerated outright."""
    reached = {tuple(0 for _ in target)}
    frontier = list(reached)
    while frontier:
        nxt = []
        for t in frontier:
            for g in gens:
                s = tuple(a + b for a, b in zip(t, g))
                if s not in reached and all(a <= b for a, b in zip(s, target)):
                    reached.add(s)
                    nxt.append(s)
        frontier = nxt
    return tuple(target) in reached


COUNTER = ZigZagNode(kind=FREE_MODULE, dim=1, generators=((1,),), out=(1,),
                     trans=(Mat([[1]]),))


def deep_nat_witness(k):
    """A nat span witness relating the one-state counters x = k and y = k
    through the middle carrier N(1, 1): everything checks at once except
    that (k, k) is in the carrier, which is k times its one generator."""
    middle = ZigZagNode(kind=GENERATED_MODULE, dim=2, generators=((1, 1),),
                        out=(1, 0), trans=(Mat.identity(2),))
    return ZigZag(functor=CUBIC, tag=T.NAT, alphabet=("a",),
                  nodes=(COUNTER, middle, COUNTER),
                  morphisms=(Morphism(1, 0, Mat([[1, 0]])), Morphism(1, 2, Mat([[0, 1]]))),
                  relating=((1, (k, k)),), endpoints=((k,), (k,)))


def two_generator_nat_witness(k, m):
    """A nat span witness relating the counters x = y = k + m through the
    middle carrier N{(1, 1, 0), (0, 0, 1)}, mapped to each counter by
    (x, y, z) -> x + z and y + z.  The hard check is (k, k, m) in the
    carrier, a descent that enters k + m targets."""
    middle = ZigZagNode(kind=GENERATED_MODULE, dim=3, generators=((1, 1, 0), (0, 0, 1)),
                        out=(1, 0, 1), trans=(Mat.identity(3),))
    return ZigZag(functor=CUBIC, tag=T.NAT, alphabet=("a",),
                  nodes=(COUNTER, middle, COUNTER),
                  morphisms=(Morphism(1, 0, Mat([[1, 0, 1]])),
                             Morphism(1, 2, Mat([[0, 1, 1]]))),
                  relating=((1, (k, k, m)),), endpoints=((k + m,), (k + m,)))


class TestNatMonoidMember:
    def test_deep_descent_does_not_recurse(self):
        assert _nat_monoid_member(((2, 3), (3, 2)), (4000, 4000))

    def test_matches_box_enumeration(self):
        rng = random.Random("nat-monoid")
        verdicts = set()
        for _ in range(300):
            dim = rng.randint(1, 3)
            gens = [tuple(rng.randint(0, 3) for _ in range(dim))
                    for _ in range(rng.randint(1, 4))]
            target = tuple(rng.randint(0, 9) for _ in range(dim))
            nonzero = [g for g in gens if any(g)]
            verdict = _nat_monoid_member(gens, target)
            assert verdict == box_monoid_member(nonzero, target)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_budget_counts_targets_entered(self, monkeypatch):
        # the descent from (a, b) by the unit vectors enters exactly a + b targets
        monkeypatch.setattr(zigzag, "MONOID_STEP_BUDGET", 50)
        assert _nat_monoid_member(((1, 0), (0, 1)), (25, 25))
        with pytest.raises(SearchBudgetExceeded, match="budget of 50 steps"):
            _nat_monoid_member(((1, 0), (0, 1)), (25, 26))

    def test_overrun_fails_only_its_check(self, monkeypatch):
        monkeypatch.setattr(zigzag, "MONOID_STEP_BUDGET", 50)
        assert verify_zigzag(two_generator_nat_witness(25, 25)).valid
        report = verify_zigzag(two_generator_nat_witness(25, 26))
        assert [(c.name, c.detail) for c in report.failures()] == [
            ("relating[1]", "N-monoid membership search exceeded its budget of 50 steps")]

    def test_one_generator_decided_exactly(self, monkeypatch):
        monkeypatch.setattr(zigzag, "MONOID_STEP_BUDGET", 50)
        big = 10 ** 12
        assert _nat_monoid_member(((1, 1),), (big, big))
        assert not _nat_monoid_member(((1, 1),), (big, big + 1))
        assert _nat_monoid_member(((0, 0), (2, 4), (2, 4)), (6, 12))  # one after dedup
        assert not _nat_monoid_member(((2, 4),), (3, 6))  # 3/2 times the generator
        assert not _nat_monoid_member(((2, 0, 1),), (4, 1, 2))
        assert not _nat_monoid_member(((0, 3),), (1, 3))
        assert not _nat_monoid_member(((0, 3),), (0, 4))
        assert _nat_monoid_member(((0, 3),), (0, 9))

    def test_one_generator_matches_box_enumeration(self):
        rng = random.Random("nat-monoid-one")
        verdicts = set()
        for _ in range(300):
            dim = rng.randint(1, 3)
            g = tuple(rng.randint(0, 3) for _ in range(dim))
            if not any(g):
                continue
            if rng.random() < 0.5:
                c = rng.randint(0, 3)
                target = tuple(c * a for a in g)
            else:
                target = tuple(rng.randint(0, 9) for _ in g)
            verdict = _nat_monoid_member((g,), target)
            assert verdict == box_monoid_member([g], target)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_deep_one_generator_witness_is_valid_at_once(self):
        witness = deep_nat_witness(10 ** 6)
        start = time.perf_counter()
        report = verify_zigzag(witness)
        elapsed = time.perf_counter() - start
        assert report.valid, report.failures()
        assert elapsed < 0.1

    def test_rejects_non_naturals(self):
        assert not _nat_monoid_member(((1, 0), (0, 1)), (F(1, 2), 1))
        assert not _nat_monoid_member(((1, 0), (0, 1)), (-1, 1))
        assert _nat_monoid_member((), (0, 0))
