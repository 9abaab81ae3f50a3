import hashlib
import random
from dataclasses import replace
import time
from fractions import Fraction as F

import pytest

from wazz.automata import (LinearCoalgebra, NotEquivalent, SemiringTag, WeightedAutomaton,
                           pair_submodule, separating_word, trace)
from wazz.hilbert import qplus_restriction_by_scaling
from wazz.linalg import Mat, unit, vector, vneg, zeros
from wazz.pca import invariant_zero_set
from wazz.polyhedra import cone_member
from wazz import polyhedra, zigzag
from wazz.zigzag import (CUBIC, FREE_MODULE, FREE_PCA, GENERATED_MODULE,
                         GENERATED_PCA, GHAT, Morphism, SearchBudgetExceeded, ZigZag,
                         ZigZagNode, _nat_monoid_member, cubic_zigzag, ghat_zigzag,
                         parse_zigzag, verify_zigzag, zigzag_to_text)

from genrandom import lifted_pair, rand_automaton, rand_config, report_witnesses

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
        assert dict(z.relating)[1] == tuple(x) + tuple(x)
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


def scaling_route_witness(z, pair):
    """z with its middle generators from the Hilbert route the qplus middle
    carrier took before it took the extreme rays, sorted as the producer
    sorts its own: mutations such as dropping the last generator depend on
    the order."""
    basis, _ = pair_submodule(*pair)
    gens = sorted(vector(g) for g in qplus_restriction_by_scaling(basis))
    middle = replace(z.nodes[1], generators=gens)
    return replace(z, nodes=(z.nodes[0], middle, z.nodes[2]))


def qplus_bench_pairs():
    """Lifted qplus pairs of every size the benchmark draws: span-desk's with
    one and two letters, restrict-unary's with one."""
    desk = ((1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0))
    unary = ((2, 1), (2, 2), (2, 3))
    for alphabet, sizes in ((("a",), desk + unary), (("a", "b"), desk)):
        for k, extra in sizes:
            rng = random.Random(f"qplus-routes/{k}+{extra}/{len(alphabet)}")
            yield lifted_pair(rng, T.QPLUS, k, extra, alphabet)


class TestQplusRoutes:
    """The extreme rays of the qplus middle carrier against the Hilbert route
    (`qplus_restriction_by_scaling`), which stays as the oracle."""

    @staticmethod
    def assert_routes_agree(pair):
        z = cubic_zigzag(*pair)
        old = scaling_route_witness(z, pair)
        rays, hilbert = z.nodes[1].generators, old.nodes[1].generators
        assert all(cone_member(hilbert, g) for g in rays)
        assert all(cone_member(rays, g) for g in hilbert)
        assert verify_zigzag(z).valid and verify_zigzag(old).valid
        reports = []
        for witness in (z, old):
            reports.append([(label, [(c.name, c.ok) for c in verify_zigzag(w).checks])
                            for label, w in report_witnesses(witness)])
        assert reports[0] == reports[1]

    def test_bench_sizes(self):
        pairs = list(qplus_bench_pairs())
        assert len(pairs) == 19
        for pair in pairs:
            self.assert_routes_agree(pair)

    @pytest.mark.parametrize("k", [4, 5])
    @pytest.mark.parametrize("seed", range(5))
    def test_one_letter_k_plus_2(self, k, seed):
        pair = lifted_pair(random.Random(seed), T.QPLUS, k, 2, ("a",))
        start = time.perf_counter()
        report = verify_zigzag(cubic_zigzag(*pair))
        elapsed = time.perf_counter() - start
        assert report.valid, failing_names(report)
        assert elapsed < 1
        # Hilbert completion does not finish within 10 s on seed 0 at either
        # size, which is why the extreme rays replaced it; the other seeds
        # finish at once
        if seed:
            self.assert_routes_agree(pair)


def perturbed_pca_pairs(rng, count):
    """Non-equivalent pca pairs, with the pair's separating word: lifted
    pairs with one output or transition weight of one side zeroed, which
    often leaves a nonempty invariant zero set, and pairs of unrelated
    automata."""
    while count:
        alphabet = ("a", "b")[:rng.randint(1, 2)]
        if rng.random() < 0.75:
            aut1, x1, aut2, x2 = lifted_pair(rng, T.PCA, rng.randint(1, 3),
                                             rng.randint(0, 2), alphabet)
            j = rng.randrange(aut1.n)
            if rng.random() < 0.5:
                aut1 = replace(aut1, out=aut1.out[:j] + (0,) + aut1.out[j + 1:])
            else:
                k, i = rng.randrange(len(alphabet)), rng.randrange(aut1.n)
                rows = [list(r) for r in aut1.trans[k].rows]
                rows[i][j] = 0
                trans = list(aut1.trans)
                trans[k] = Mat(rows)
                aut1 = replace(aut1, trans=tuple(trans))
        else:
            aut1, aut2 = (rand_automaton(rng, T.PCA, rng.randint(1, 3), alphabet)
                          for _ in range(2))
            x1, x2 = rand_config(rng, T.PCA, aut1.n), rand_config(rng, T.PCA, aut2.n)
        word = separating_word(aut1, x1, aut2, x2)
        if word is not None:
            count -= 1
            yield (aut1, x1, aut2, x2), word


class TestGhatSeparatingWord:
    def test_names_the_unreduced_pairs_word(self):
        words, reduced = set(), 0
        for pair, word in perturbed_pca_pairs(random.Random("ghat-word"), 150):
            with pytest.raises(NotEquivalent) as err:
                ghat_zigzag(*pair)
            assert err.value.word == word
            words.add(len(word))
            reduced += any(invariant_zero_set(a.out, a.trans) for a in pair[::2])
        assert reduced >= 30 and max(words) >= 2


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
        tampered_node = replace(sink, kind=GENERATED_MODULE)
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
        fake = replace(mid, kind=FREE_MODULE,
                       generators=mid.generators + (vector([2, 1, 1]),))
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

    # sha256 of the witness text for lifted_pair(Random("golden/<key>"), tag,
    # 3, 2, ("a", "b")), the tag being the key up to a "-"; a change here
    # changes the bytes every witness file has.  The "pca" pair reduces every
    # state away, so nodes 1-3 of its witness have dimension 0; "pca-pyramid"
    # pins pyramid normals and middle generators on nodes of dimension 3 to 8
    GOLDEN_SHA256 = {
        "nat": "8c7f962578bb769c2ce0e43a55d82354b4bbe49f78f01f30e55be9376fbff4b6",
        "int": "ae716ea903e9d96c6a2019b0daea40685b733e5507f04c6dfc3e576ea5ce548b",
        "qplus": "53fca44903d5291f63c27eebc13d84bbabb8ce28bbc9db5784623ecf0bfb35ec",
        "q": "a768815721c3ca2507b2adfadf71f4b2e3dee901960e326dce1b95935aa4644d",
        "rplus": "82a0a3a27defb0326f34a83de8a709b62b7ed9ac73a0408e453c83d81fc67f05",
        "real": "515b530e041e7ba2223d4472ed7eaf44b23dab7356e58d6ab2c2618c2dff3160",
        "unit": "3ab5c1801e02afeda02eacb0e27faa04dd8166e601148e853561ce980eb2353d",
        "pca": "999d6b7b753daff18b3cff17f74ba3ed90552ecb6eca2787359aa609335fb634",
        "pca-pyramid": "e84c970302cc9a7a4c2dba3c8f3d723a84f9aa530f0b77b0412d9d4a36a99a12",
    }

    @pytest.mark.parametrize("key", sorted(GOLDEN_SHA256))
    def test_golden_witness_bytes(self, key):
        tag = key.split("-")[0]
        rng = random.Random(f"golden/{key}")
        aut1, x1, aut2, x2 = lifted_pair(rng, T(tag), 3, 2, ("a", "b"))
        build = ghat_zigzag if tag == "pca" else cubic_zigzag
        z = build(aut1, x1, aut2, x2)
        if key == "pca-pyramid":
            assert [n.dim for n in z.nodes] == [5, 5, 8, 3, 3]
            assert len(z.nodes[2].generators) == 4
        text = zigzag_to_text(z)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.GOLDEN_SHA256[key]
        assert parse_zigzag(text) == z

    # sha256 over every report that `report_witnesses` yields for the
    # witnesses of lifted_pair(Random("report/<tag>/<s>"), tag, k, extra,
    # ("a", "b")) over REPORT_SIZES: each check's name, verdict and detail
    # string, on valid and mutated witnesses alike
    REPORT_SIZES = ((2, 1), (3, 1), (2, 2))
    GOLDEN_REPORT_SHA256 = {
        "nat": "87e3bb55c5cae420406a9916e75af5d7412e53dc20985b6d4ad9b48cdadc8017",
        "int": "45ec27ee8618a10266591621a6d9d5656630bfeb508369cfd6934d2caf733931",
        "qplus": "9f40b197e2e488528065e329a0c529c64e1f94cec993020b4b60f964fb9e35f3",
        "q": "8db70882a448db50343769ef5e4ced31d28fecac59f7b110b4332215b5446826",
        "rplus": "5c347c8f0df95891a984a4df222183042e699716986d1cc07931c1afaa53a293",
        "real": "a9d2f42d3abdba84a53177710e37d1d3091d599392d257a1f9b91978ad563e30",
        "unit": "5adc88e4ee14628e23ecfff391c1a8df816e939a4dfe76d901caa5165f969a57",
        "pca": "321aa0d70fac10d66e23dafbc1c683037ba24b0f56c922d21d5a936623aabef0",
    }

    @staticmethod
    def report_digest(tag):
        digest = hashlib.sha256()
        verdicts = []
        for s, (k, extra) in enumerate(TestWitnessFormat.REPORT_SIZES):
            rng = random.Random(f"report/{tag}/{s}")
            aut1, x1, aut2, x2 = lifted_pair(rng, T(tag), k, extra, ("a", "b"))
            build = ghat_zigzag if tag == "pca" else cubic_zigzag
            for label, w in report_witnesses(build(aut1, x1, aut2, x2)):
                report = verify_zigzag(w)
                verdicts.append((label, report.valid))
                checks = [(c.name, c.ok, c.detail) for c in report.checks]
                digest.update(repr((label, checks)).encode("utf-8"))
        return digest.hexdigest(), verdicts

    @pytest.mark.parametrize("tag", sorted(GOLDEN_REPORT_SHA256))
    def test_golden_reports(self, tag):
        digest, verdicts = self.report_digest(tag)
        assert all(valid for label, valid in verdicts if label == "valid")
        assert not all(valid for _, valid in verdicts)
        assert digest == self.GOLDEN_REPORT_SHA256[tag]


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
        bumped = replace(u1, coalgebra=replace(u1.coalgebra,
                                               out=tuple(q + 1 for q in u1.coalgebra.out)))
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
        shrunk = replace(u1, generators=tuple(tuple(q / 2 for q in g)
                                              for g in u1.generators))
        report = verify_zigzag(self.rebuilt(z, nodes=(z.nodes[0], shrunk) + z.nodes[2:]))
        assert not report.valid
        assert any(n.startswith("morphism-carrier") or n.startswith("node-coalgebra")
                   for n in failing_names(report))


class TestMalformedWitnesses:
    def test_negative_generator_reports_instead_of_crashing(self):
        aut = pca_half_loop()
        z = ghat_zigzag(aut, vector([1]), aut, vector([1]))
        mid = z.nodes[2]
        poisoned = replace(mid, generators=mid.generators + (vector([-1, 0]),))
        tampered = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                          nodes=z.nodes[:2] + (poisoned,) + z.nodes[3:],
                          morphisms=z.morphisms, relating=z.relating,
                          endpoints=z.endpoints)
        report = verify_zigzag(tampered)
        assert not report.valid
        assert "node-kind[2]" in failing_names(report)

    def test_module_node_in_subconvex_witness_reports_instead_of_crashing(self):
        rng = random.Random("report/pca/0")
        z = ghat_zigzag(*lifted_pair(rng, T.PCA, 2, 1, ("a", "b")))
        moved = replace(z.nodes[0], kind=FREE_MODULE)
        assert moved.generators
        report = verify_zigzag(replace(z, nodes=(moved,) + z.nodes[1:]))
        assert not report.valid
        (kind,) = [c for c in report.checks if c.name == "node-kind[0]"]
        assert kind.detail == "subconvex witnesses need subconvex carriers"

    def test_duplicate_relating_entries_rejected(self):
        z = cubic_zigzag(*qplus_pair())
        doubled = z.relating + ((1, vector([0, 0, 0])),)
        tampered = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                          nodes=z.nodes, morphisms=z.morphisms,
                          relating=doubled, endpoints=z.endpoints)
        report = verify_zigzag(tampered)
        assert not report.valid
        assert "shape" in failing_names(report)


class TestCarrierWorkedOutOnce:
    """During one verification each subconvex node's generators are checked
    for nonnegativity once, and a polytope is built only for a carrier that
    is not a well-formed free one: one per such node, none for the rest."""

    def witnesses(self):
        for tag, build in ((T.PCA, ghat_zigzag), (T.UNIT, cubic_zigzag)):
            rng = random.Random(f"carrier-once/{tag.value}")
            for k, extra in ((1, 1), (2, 1), (2, 2), (3, 1)):
                z = build(*lifted_pair(rng, tag, k, extra, ("a", "b")))
                yield z
                # a FREE_PCA node whose kind check fails is judged as a hull
                bad = replace(z.nodes[0], generators=z.nodes[0].generators[1:])
                yield replace(z, nodes=(bad,) + z.nodes[1:])

    def test_nonnegativity_and_polytopes(self, monkeypatch):
        checked, built = [], []
        original_is_nonneg, original_polytope = zigzag.is_nonneg, zigzag.PcaPolytope

        def is_nonneg(v):
            checked.append(v)
            return original_is_nonneg(v)

        def polytope(dim, gens):
            built.append(gens)
            return original_polytope(dim, gens)

        monkeypatch.setattr(zigzag, "is_nonneg", is_nonneg)
        monkeypatch.setattr(zigzag, "PcaPolytope", polytope)
        hulls = 0
        for z in self.witnesses():
            checked.clear()
            built.clear()
            report = verify_zigzag(z)
            assert report.valid == (len(z.nodes[0].generators) == z.nodes[0].dim)
            assert sorted(checked) == sorted(g for n in z.nodes for g in n.generators)
            hull_nodes = [n.generators for n in z.nodes
                          if n.kind == GENERATED_PCA or len(n.generators) != n.dim]
            assert built == hull_nodes
            hulls += len(built)
        assert hulls >= 16

    def test_well_formed_free_carriers_run_no_double_description(self, monkeypatch):
        calls = []
        original = polyhedra.dd_v_to_h
        monkeypatch.setattr(polyhedra, "dd_v_to_h", lambda v: calls.append(v) or original(v))
        rng = random.Random("carrier-once/dd")
        z = ghat_zigzag(*lifted_pair(rng, T.PCA, 2, 1, ("a", "b")))
        free = [n for n in z.nodes if n.kind == FREE_PCA]
        assert all(n.generators for n in free)
        polyhedra._subconvex_facets.cache_clear()
        calls.clear()
        assert verify_zigzag(z).valid
        assert [v.points[1:] for v in calls] == [z.nodes[2].generators]


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


def identity_coalgebra(out):
    """One letter acting as the identity, and the output functional `out`."""
    return LinearCoalgebra(n=len(out), alphabet=("a",), out=out,
                           trans=(Mat.identity(len(out)),))


COUNTER = ZigZagNode(kind=FREE_MODULE, generators=((1,),), coalgebra=identity_coalgebra((1,)))


def deep_nat_witness(k):
    """A nat span witness relating the one-state counters x = k and y = k
    through the middle carrier N(1, 1): everything checks at once except
    that (k, k) is in the carrier, which is k times its one generator."""
    middle = ZigZagNode(kind=GENERATED_MODULE, generators=((1, 1),),
                        coalgebra=identity_coalgebra((1, 0)))
    return ZigZag(functor=CUBIC, tag=T.NAT, alphabet=("a",),
                  nodes=(COUNTER, middle, COUNTER),
                  morphisms=(Morphism(1, 0, Mat([[1, 0]])), Morphism(1, 2, Mat([[0, 1]]))),
                  relating=((1, (k, k)),), endpoints=((k,), (k,)))


def two_generator_nat_witness(k, m):
    """A nat span witness relating the counters x = y = k + m through the
    middle carrier N{(1, 1, 0), (0, 0, 1)}, mapped to each counter by
    (x, y, z) -> x + z and y + z.  The hard check is (k, k, m) in the
    carrier, a descent that enters k + m targets."""
    middle = ZigZagNode(kind=GENERATED_MODULE, generators=((1, 1, 0), (0, 0, 1)),
                        coalgebra=identity_coalgebra((1, 0, 1)))
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
