import hashlib
import random
import sys
from dataclasses import replace
import time
from fractions import Fraction as F

import pytest

from wazz.automata import (LinearCoalgebra, NotEquivalent, SemiringTag, WeightedAutomaton,
                           pair_submodule, separating_word, trace)
from wazz.hilbert import qplus_restriction_by_scaling
from wazz.linalg import Mat, scaled, unit
from wazz.pca import invariant_zero_set
from wazz.polyhedra import cone_member
from wazz import linalg, polyhedra, zigzag
from wazz.zigzag import (CUBIC, FREE_MODULE, FREE_PCA, GENERATED_MODULE,
                         GENERATED_PCA, GHAT, Morphism, SearchBudgetExceeded, ZigZag,
                         ZigZagNode, _RING_TAGS, _carrier, _nat_monoid_member, cubic_zigzag,
                         five_node_zigzag, ghat_zigzag, parse_zigzag, span_zigzag,
                         verify_zigzag, zigzag_to_text)

import kernel_oracle
import verify_oracle
from genrandom import (lifted_pair, rand_automaton, rand_config, report_witnesses,
                       with_redundant_generators)
from matvec_oracle import fraction_rows, fractions, identity, sconcat, svec, transpose, zero
from span_oracle import paper_route

T = SemiringTag


def qplus_pair():
    aut1 = WeightedAutomaton(tag=T.QPLUS, n=1, alphabet=("a",),
                             out=svec(["1/2"]), trans=(Mat([[F("1/2")]]),))
    aut2 = WeightedAutomaton(tag=T.QPLUS, n=2, alphabet=("a",),
                             out=svec(["1/2", "1/2"]),
                             trans=(Mat([[0, F("1/2")], [F("1/2"), 0]]),))
    return aut1, svec([1]), aut2, unit(2, 0)


def pca_half_loop():
    return WeightedAutomaton(tag=T.PCA, n=1, alphabet=("a",),
                             out=svec(["1/2"]), trans=(Mat([[F("1/2")]]),))


def failing_names(report):
    return {c.name for c in report.failures()}


class TestCubic:
    def test_identical_nat_automata(self):
        rng = random.Random(201)
        aut = rand_automaton(rng, T.NAT, 2, ("a",))
        x = svec([1, 2])
        z = span_zigzag(aut, x, aut, x)
        assert len(z.nodes) == 3
        assert z.nodes[1].kind == GENERATED_MODULE
        # the diagonal element relates the endpoints
        assert dict(z.relating)[1] == sconcat(x, x)
        report = verify_zigzag(z)
        assert report.valid, failing_names(report)

    def test_worked_qplus_pair(self):
        z = span_zigzag(*qplus_pair())
        assert [n.kind for n in z.nodes] == [FREE_MODULE, GENERATED_MODULE, FREE_MODULE]
        # middle generators: hand reduction of span{(1,1,0),(1/2,0,1/2)} ∩ Q+^3
        assert set(z.nodes[1].generators) == {svec([1, 0, 1]), svec([1, 1, 0])}
        report = verify_zigzag(z)
        assert report.valid, failing_names(report)

    def test_not_equivalent(self):
        aut1, x1, aut2, x2 = qplus_pair()
        bad = WeightedAutomaton(tag=T.QPLUS, n=2, alphabet=("a",),
                                out=svec(["1/2", 1]), trans=aut2.trans)
        with pytest.raises(NotEquivalent) as err:
            cubic_zigzag(aut1, x1, bad, x2)
        assert err.value.word == ("a",)

    def test_pca_tag_rejected(self):
        aut = pca_half_loop()
        with pytest.raises(ValueError):
            cubic_zigzag(aut, svec([1]), aut, svec([1]))

    @pytest.mark.parametrize("tag", [T.NAT, T.INT, T.QPLUS, T.Q, T.RPLUS,
                                     T.REAL, T.UNIT])
    def test_random_equivalent_pairs(self, tag):
        rng = random.Random("zz-" + tag.value)
        for _ in range(8):
            aut1, x1, aut2, x2 = lifted_pair(rng, tag, rng.randint(1, 2),
                                             rng.randint(0, 2),
                                             ("a", "b")[: rng.randint(1, 2)])
            z = paper_route(tag)(aut1, x1, aut2, x2)
            assert len(z.nodes) == 3
            if tag in _RING_TAGS:
                # a cospan: both automata map onto a free sink
                assert [node.kind for node in z.nodes] == [FREE_MODULE] * 3
                assert [(m.src, m.dst) for m in z.morphisms] == [(0, 1), (2, 1)]
                assert z.relating == ((0, x1), (2, x2))
            else:
                expected = GENERATED_PCA if tag is T.UNIT else GENERATED_MODULE
                assert z.nodes[1].kind == expected
                assert all(z.nodes[i].is_free for i in (0, 2))
            report = verify_zigzag(z)
            assert report.valid, (tag, failing_names(report))


class TestGhat:
    def test_worked_half_loop(self):
        aut = pca_half_loop()
        z = five_node_zigzag(aut, svec([1]), aut, svec([1]))
        assert len(z.nodes) == 5
        kinds = [n.kind for n in z.nodes]
        assert kinds == [FREE_PCA, FREE_PCA, GENERATED_PCA, FREE_PCA, FREE_PCA]
        assert z.nodes[2].generators == (svec([1, 1]),)
        report = verify_zigzag(z)
        assert report.valid, failing_names(report)

    def test_dead_coordinate_vs_quotient(self):
        big = WeightedAutomaton(tag=T.PCA, n=2, alphabet=("a",),
                                out=svec(["1/2", 0]),
                                trans=(Mat([[F("1/2"), 0], [0, 1]]),))
        small = WeightedAutomaton(tag=T.PCA, n=1, alphabet=("a",),
                                  out=svec(["1/2"]), trans=(Mat([[F("1/2")]]),))
        z = five_node_zigzag(big, unit(2, 0), small, svec([1]))
        report = verify_zigzag(z)
        assert report.valid, failing_names(report)
        # the dead coordinate also relates to zero on the other side
        z2 = five_node_zigzag(big, unit(2, 1), small, svec([0]))
        report2 = verify_zigzag(z2)
        assert report2.valid, failing_names(report2)

    def test_not_equivalent(self):
        aut = pca_half_loop()
        other = WeightedAutomaton(tag=T.PCA, n=1, alphabet=("a",),
                                  out=svec(["1/4"]), trans=(Mat([[F("1/2")]]),))
        with pytest.raises(NotEquivalent) as err:
            ghat_zigzag(aut, svec([1]), other, svec([1]))
        assert err.value.word == ()

    def test_random_equivalent_pairs(self):
        rng = random.Random(211)
        for _ in range(10):
            aut1, x1, aut2, x2 = lifted_pair(rng, T.PCA, rng.randint(1, 2),
                                             rng.randint(0, 2),
                                             ("a", "b")[: rng.randint(1, 2)])
            z = five_node_zigzag(aut1, x1, aut2, x2)
            assert len(z.nodes) == 5
            assert z.nodes[1].kind == FREE_PCA and z.nodes[3].kind == FREE_PCA
            report = verify_zigzag(z)
            assert report.valid, failing_names(report)

    @pytest.mark.parametrize("k, extra", [(7, 1), (12, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lifted_pairs_at_scale(self, k, extra, seed):
        # the pyramid normal is one linear solve, so five_node_zigzag takes well
        # under a second here; the bound leaves room for a slow machine
        rng = random.Random(f"ghat-scale-{k}+{extra}-{seed}")
        aut1, x1, aut2, x2 = lifted_pair(rng, T.PCA, k, extra, ("a",))
        start = time.perf_counter()
        z = five_node_zigzag(aut1, x1, aut2, x2)
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
    gens = sorted(scaled(g) for g in qplus_restriction_by_scaling(map(fractions, basis)))
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
        z = span_zigzag(*pair)
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
        report = verify_zigzag(span_zigzag(*pair))
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
                out = fractions(aut1.out)
                aut1 = replace(aut1, out=scaled(out[:j] + (0,) + out[j + 1:]))
            else:
                k, i = rng.randrange(len(alphabet)), rng.randrange(aut1.n)
                rows = [list(r) for r in fraction_rows(aut1.trans[k])]
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
        return span_zigzag(*qplus_pair())

    def test_tampered_morphism_entry(self):
        z = self.make()
        mor = z.morphisms[0]
        rows = [list(r) for r in fraction_rows(mor.matrix)]
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
                       generators=mid.generators + (svec([2, 1, 1]),))
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
                          endpoints=(z.endpoints[0], svec([0, 1])))
        report = verify_zigzag(tampered)
        assert not report.valid
        names = failing_names(report)
        assert any(n.startswith("chain") or n == "trace-agreement" for n in names)


class TestWitnessFormat:
    def test_roundtrip_cubic(self):
        z = span_zigzag(*qplus_pair())
        text = zigzag_to_text(z)
        back = parse_zigzag(text)
        assert back == z
        assert zigzag_to_text(back) == text

    def test_roundtrip_ghat(self):
        aut = pca_half_loop()
        z = five_node_zigzag(aut, svec([1]), aut, svec([1]))
        text = zigzag_to_text(z)
        back = parse_zigzag(text)
        assert back == z
        assert zigzag_to_text(back) == text

    def test_roundtrip_zero_dimensional_nodes(self):
        dead = WeightedAutomaton(tag=T.PCA, n=1, alphabet=("a",),
                                 out=svec([0]), trans=(Mat([[1]]),))
        z = five_node_zigzag(dead, svec([1]), dead, svec(["1/2"]))
        assert z.nodes[2].dim == 0
        report = verify_zigzag(z)
        assert report.valid, failing_names(report)
        back = parse_zigzag(zigzag_to_text(z))
        assert back == z

    def test_shared_matrices_printed_where_they_stand(self, monkeypatch):
        """Nodes 0/1 and 3/4 of a ghat witness with nothing dropped share
        their letter matrices; each block is formatted where it is printed,
        so a shared `Mat` is formatted once per place and prints alike."""
        rng = random.Random("shared-blocks")
        z = five_node_zigzag(*lifted_pair(rng, T.PCA, 3, 1, ("a", "b")))
        mats = [m for node in z.nodes for m in node.coalgebra.trans]
        mats += [mor.matrix for mor in z.morphisms]
        assert z.nodes[0].coalgebra.trans[0] is z.nodes[1].coalgebra.trans[0]
        text = zigzag_to_text(z)
        formatted = []
        original = zigzag.block_lines
        monkeypatch.setattr(zigzag, "block_lines",
                            lambda m: formatted.append(m) or original(m))
        assert zigzag_to_text(z) == text
        assert [id(m) for m in formatted] == [id(m) for m in mats]
        assert len({id(m) for m in mats}) < len(mats)
        for node in (0, 3):
            for a, m in zip(z.alphabet, z.nodes[node].coalgebra.trans):
                assert text.count("\n".join([f"trans {a}", *original(m), ""])) == 2

    def test_parse_shares_repeated_blocks(self):
        """A block whose lines repeat an earlier block of the same witness is
        read once: nodes 0/1 and 3/4 of a parsed ghat witness with nothing
        dropped share their letter `Mat`s, and the report is unchanged."""
        rng = random.Random("shared-blocks")
        z = five_node_zigzag(*lifted_pair(rng, T.PCA, 3, 1, ("a", "b")))
        back = parse_zigzag(zigzag_to_text(z))
        assert back == z
        for i, j in ((0, 1), (3, 4)):
            for m, m2 in zip(back.nodes[i].coalgebra.trans, back.nodes[j].coalgebra.trans):
                assert m is m2
        assert back.nodes[1].coalgebra.trans[0] is not back.nodes[3].coalgebra.trans[0]
        assert verify_zigzag(back) == verify_zigzag(z)
        # nothing is kept from one parse to the next
        again = parse_zigzag(zigzag_to_text(z))
        assert again.nodes[0].coalgebra.trans[0] is not back.nodes[0].coalgebra.trans[0]

    def test_deterministic_output(self):
        a1, x1, a2, x2 = qplus_pair()
        assert zigzag_to_text(cubic_zigzag(a1, x1, a2, x2)) == \
            zigzag_to_text(cubic_zigzag(a1, x1, a2, x2))

    def test_verify_after_parse(self):
        z = span_zigzag(*qplus_pair())
        report = verify_zigzag(parse_zigzag(zigzag_to_text(z)))
        assert report.valid

    # sha256 of the witness text of the paper's route (`paper_route`) for
    # lifted_pair(Random("golden/<key>"), tag, 3, 2, ("a", "b")), the tag
    # being the key up to a "-"; a change here changes the bytes every
    # witness file of that route has.  The "int", "q" and "real" witnesses
    # are cospans onto the pair's quotient, the others spans and five-node
    # chains.  The "pca" pair reduces every state away, so nodes 1-3 of its
    # witness have dimension 0; "pca-pyramid" pins pyramid normals and middle
    # generators on nodes of dimension 3 to 8
    GOLDEN_SHA256 = {
        "nat": "8c7f962578bb769c2ce0e43a55d82354b4bbe49f78f01f30e55be9376fbff4b6",
        "int": "ca9671174f8926b935bf4e39d7639468af9d4c6f8536cdea85003ac239c21025",
        "qplus": "53fca44903d5291f63c27eebc13d84bbabb8ce28bbc9db5784623ecf0bfb35ec",
        "q": "602cc1159ee91a535325b4fc56b269402d37a572ff3f5204849c7431a29b68c6",
        "rplus": "82a0a3a27defb0326f34a83de8a709b62b7ed9ac73a0408e453c83d81fc67f05",
        "real": "dc4575af4ede677ef45bed027ab607369832b32788bf9fef2d74506874a8123c",
        "unit": "3ab5c1801e02afeda02eacb0e27faa04dd8166e601148e853561ce980eb2353d",
        "pca": "999d6b7b753daff18b3cff17f74ba3ed90552ecb6eca2787359aa609335fb634",
        "pca-pyramid": "e84c970302cc9a7a4c2dba3c8f3d723a84f9aa530f0b77b0412d9d4a36a99a12",
    }

    # sha256 of the witness text `cubic_zigzag` and `ghat_zigzag` write for
    # the same pairs of the other tags: each of these pairs' quotients is in
    # its semiring, so each witness is a cospan onto it
    GOLDEN_COSPAN_SHA256 = {
        "nat": "aaed6de311aa83aca03e2ecd68d167f9992d49af52343287a4468ababa1808b7",
        "qplus": "f3ca5d2fea19adefc6d71cfcf9c9a13c2dfc7312f4f19e022b5e64fccb18e6f3",
        "rplus": "7fff1a10be58a8ab5b60ee38633280874b154265375919f029294ac721e161c7",
        "unit": "a15535093a40dd20cadb46d8f8d3782d15faf40fa26fbe6a2e0e57d53e32b9fa",
        "pca": "b925fe3341fceda6ae53125803d86a1623a88c989d8d668636fad4cbc4cff959",
        "pca-pyramid": "2e5e632e2b791d526addeb1c0c4ba18eb4ad05e77fbe0806f788d622c4f6e717",
    }

    @staticmethod
    def default_route(tag):
        """The producer `wazz zigzag` runs for the tag's name."""
        return ghat_zigzag if tag == "pca" else cubic_zigzag

    @pytest.mark.parametrize("key", sorted(GOLDEN_COSPAN_SHA256))
    def test_golden_cospan_bytes(self, key):
        tag = key.split("-")[0]
        rng = random.Random(f"golden/{key}")
        aut1, x1, aut2, x2 = lifted_pair(rng, T(tag), 3, 2, ("a", "b"))
        z = self.default_route(tag)(aut1, x1, aut2, x2)
        assert [(m.src, m.dst) for m in z.morphisms] == [(0, 1), (2, 1)]
        assert z.relating == ((0, x1), (2, x2))
        text = zigzag_to_text(z)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            self.GOLDEN_COSPAN_SHA256[key]
        assert parse_zigzag(text) == z
        assert verify_zigzag(z).valid

    @pytest.mark.parametrize("key", sorted(GOLDEN_SHA256))
    def test_golden_witness_bytes(self, key):
        tag = key.split("-")[0]
        rng = random.Random(f"golden/{key}")
        aut1, x1, aut2, x2 = lifted_pair(rng, T(tag), 3, 2, ("a", "b"))
        z = paper_route(T(tag))(aut1, x1, aut2, x2)
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
        "nat": "0b74f22f8ecde7477d24e3e32f30089cd98bc1e0dffd1c54ccbf7fa7c08ab621",
        "int": "837efb858df0407481be75dd1923a14a8de07533b5530942100de80cc5805a65",
        "qplus": "fb70a058c622d17e21e49f1b533cc387d1b95e3c32bdb6665a7e248adec3d6b4",
        "q": "14c1bfef8f78e90e19be30959358e31922e8edb807e74e2bea7d1f404374e50b",
        "rplus": "1d72e2eade4956950d3ccab7de6f200c1485cff3f1d8ba3144f24e1afde52a24",
        "real": "c88423972400247e5a7346f160d9ba73be820ab5359d60409d111fdd3e9a1f64",
        "unit": "8c5e274e2edc977f81cb233d8fd37bfe8ffbebdb216634a65ecc3eb7a57cf17f",
        "pca": "0ba0246d00beb6d6c901eecf4abc5adcf611f930702c841a495435754e2806b9",
    }

    # the same over the witnesses `cubic_zigzag` and `ghat_zigzag` write,
    # all cospans for these pairs
    GOLDEN_COSPAN_REPORT_SHA256 = {
        "nat": "dc9eb8abdf14c8c9fc9bc53ea37d9405bb1b7e5c6bc5cc761286b6f1a5379911",
        "qplus": "5dbb1fa71983ed9a24b06e9a9cc013bc2ec94fc75a945d1ad5ea17bb1a9136e7",
        "rplus": "5b009fecfcb18a3dd72d6ea7f427b06ddcf749d76733702f50d0b06660c19f37",
        "unit": "75020180203990e69340f33012d2097bc76836806414e6a6e33a198007d42e03",
        "pca": "3cb9f7d054a1fb63493849f3184812be32b7ee13adba528d88780736a66c407e",
    }

    @staticmethod
    def golden_report_witnesses(tag, cospan=False):
        """(label, witness) for every witness the golden reports cover: of
        the paper's route, or of the route `wazz zigzag` runs."""
        build = TestWitnessFormat.default_route(tag) if cospan else paper_route(T(tag))
        for s, (k, extra) in enumerate(TestWitnessFormat.REPORT_SIZES):
            rng = random.Random(f"report/{tag}/{s}")
            aut1, x1, aut2, x2 = lifted_pair(rng, T(tag), k, extra, ("a", "b"))
            yield from report_witnesses(build(aut1, x1, aut2, x2))

    @staticmethod
    def report_digest(tag, cospan=False):
        digest = hashlib.sha256()
        verdicts = []
        for label, w in TestWitnessFormat.golden_report_witnesses(tag, cospan):
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

    @pytest.mark.parametrize("tag", sorted(GOLDEN_COSPAN_REPORT_SHA256))
    def test_golden_cospan_reports(self, tag):
        assert all(len(w.nodes) == 3 for label, w in self.golden_report_witnesses(tag, True)
                   if label == "valid")
        digest, verdicts = self.report_digest(tag, True)
        assert all(valid for label, valid in verdicts if label == "valid")
        assert not all(valid for _, valid in verdicts)
        assert digest == self.GOLDEN_COSPAN_REPORT_SHA256[tag]

    @pytest.mark.parametrize("tag", sorted(GOLDEN_REPORT_SHA256))
    def test_verifier_runs_no_word_closure(self, tag, monkeypatch):
        """The verifier decides no equivalence: no word closure runs while it
        checks the golden-report witnesses, whatever module calls it."""
        witnesses = list(self.golden_report_witnesses(tag))
        calls = []
        original = linalg._word_closure

        def spy(*args):
            calls.append("_word_closure")
            return original(*args)

        for module in list(sys.modules.values()):
            if (module is not None and module.__name__.split(".")[0] == "wazz"
                    and getattr(module, "_word_closure", None) is original):
                monkeypatch.setattr(module, "_word_closure", spy)
        verdicts = {verify_zigzag(w).valid for _, w in witnesses}
        assert verdicts == {True, False}
        assert calls == []
        # the spy is in place: building a witness runs the producer's word
        # closure, which `automata` calls by name
        cubic_zigzag(*qplus_pair())
        assert calls == ["_word_closure"]


class TestParseErrors:
    def test_bad_kind(self):
        from wazz.formats import ParseError
        text = zigzag_to_text(span_zigzag(*qplus_pair()))
        broken = text.replace("GENERATED_MODULE", "SHINY_MODULE")
        with pytest.raises(ParseError):
            parse_zigzag(broken)

    def test_morphism_out_of_range(self):
        from wazz.formats import ParseError
        text = zigzag_to_text(span_zigzag(*qplus_pair()))
        broken = text.replace("morphism 1 0", "morphism 1 9")
        with pytest.raises(ParseError):
            parse_zigzag(broken)

    def test_bad_rational(self):
        from wazz.formats import ParseError
        text = zigzag_to_text(span_zigzag(*qplus_pair()))
        broken = text.replace("out 1/2 0 0", "out 0.5 0 0")
        with pytest.raises(ParseError):
            parse_zigzag(broken)


class TestShapeChecks:
    def test_non_adjacent_morphism_rejected(self):
        z = span_zigzag(*qplus_pair())
        skewed = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                        nodes=z.nodes,
                        morphisms=(Morphism(1, 0, z.morphisms[0].matrix),
                                   Morphism(0, 2, zero(2, 1))),
                        relating=z.relating, endpoints=z.endpoints)
        report = verify_zigzag(skewed)
        assert not report.valid
        assert any(c.name == "shape" for c in report.failures())

    def test_mixed_direction_node_rejected(self):
        z = span_zigzag(*qplus_pair())
        flipped = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                         nodes=z.nodes,
                         morphisms=(z.morphisms[0],
                                    Morphism(2, 1, transpose(z.morphisms[1].matrix))),
                         relating=z.relating, endpoints=z.endpoints)
        report = verify_zigzag(flipped)
        assert not report.valid
        assert any(c.name == "shape" for c in report.failures())

    def test_empty_chain_rejected(self):
        """A chain with no nodes fails the shape check, in the verifier and
        in its oracle, instead of reading a first node."""
        z = span_zigzag(*qplus_pair())
        empty = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet, nodes=(),
                       morphisms=(), relating=(), endpoints=z.endpoints)
        for verify in (verify_zigzag, verify_oracle.verify_zigzag):
            report = verify(empty)
            assert not report.valid
            assert [c.name for c in report.failures()] == ["shape"]


class TestGhatNegativeControls:
    def make(self):
        aut = pca_half_loop()
        return five_node_zigzag(aut, svec([1]), aut, svec([1]))

    def rebuilt(self, z, **kw):
        fields = dict(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                      nodes=z.nodes, morphisms=z.morphisms,
                      relating=z.relating, endpoints=z.endpoints)
        fields.update(kw)
        return ZigZag(**fields)

    def test_overbudget_pyramid_node(self):
        z = self.make()
        u1 = z.nodes[1]
        bumped = replace(u1, coalgebra=replace(
            u1.coalgebra, out=scaled([q + 1 for q in fractions(u1.coalgebra.out)])))
        report = verify_zigzag(self.rebuilt(z, nodes=(z.nodes[0], bumped) + z.nodes[2:]))
        assert not report.valid
        names = failing_names(report)
        assert any(n.startswith("node-coalgebra[1]") or n.startswith("morphism-square")
                   for n in names)

    def test_tampered_middle_relating(self):
        z = self.make()
        relating = tuple((i, v) if i != 2 else (2, svec([2, 2]))
                         for i, v in z.relating)
        report = verify_zigzag(self.rebuilt(z, relating=relating))
        assert not report.valid
        names = failing_names(report)
        assert any(n.startswith("relating[2]") or n.startswith("chain")
                   for n in names)

    def test_shrunk_pyramid_loses_morphism_carrier(self):
        z = self.make()
        u1 = z.nodes[1]
        shrunk = replace(u1, generators=tuple(scaled([q / 2 for q in fractions(g)])
                                              for g in u1.generators))
        report = verify_zigzag(self.rebuilt(z, nodes=(z.nodes[0], shrunk) + z.nodes[2:]))
        assert not report.valid
        assert any(n.startswith("morphism-carrier") or n.startswith("node-coalgebra")
                   for n in failing_names(report))


class TestMalformedWitnesses:
    def test_negative_generator_reports_instead_of_crashing(self):
        aut = pca_half_loop()
        z = five_node_zigzag(aut, svec([1]), aut, svec([1]))
        mid = z.nodes[2]
        poisoned = replace(mid, generators=mid.generators + (svec([-1, 0]),))
        tampered = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                          nodes=z.nodes[:2] + (poisoned,) + z.nodes[3:],
                          morphisms=z.morphisms, relating=z.relating,
                          endpoints=z.endpoints)
        report = verify_zigzag(tampered)
        assert not report.valid
        assert "node-kind[2]" in failing_names(report)

    def test_module_node_in_subconvex_witness_reports_instead_of_crashing(self):
        rng = random.Random("report/pca/0")
        z = five_node_zigzag(*lifted_pair(rng, T.PCA, 2, 1, ("a", "b")))
        moved = replace(z.nodes[0], kind=FREE_MODULE)
        assert moved.generators
        report = verify_zigzag(replace(z, nodes=(moved,) + z.nodes[1:]))
        assert not report.valid
        (kind,) = [c for c in report.checks if c.name == "node-kind[0]"]
        assert kind.detail == "subconvex witnesses need subconvex carriers"

    def test_duplicate_relating_entries_rejected(self):
        z = span_zigzag(*qplus_pair())
        doubled = z.relating + ((1, svec([0, 0, 0])),)
        tampered = ZigZag(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                          nodes=z.nodes, morphisms=z.morphisms,
                          relating=doubled, endpoints=z.endpoints)
        report = verify_zigzag(tampered)
        assert not report.valid
        assert "shape" in failing_names(report)

    @staticmethod
    def cut_relating(z, node):
        """z with the relating element at `node` cut to two entries."""
        relating = tuple((i, scaled(fractions(v)[:2]) if i == node else v)
                         for i, v in z.relating)
        assert len(dict(relating)[node][1]) == 2 != z.nodes[node].dim
        return replace(z, relating=relating)

    @pytest.mark.parametrize("witness, node, sink", [
        (lambda: span_zigzag(*qplus_pair()), 1, 0),
        (lambda: five_node_zigzag(*lifted_pair(random.Random("report/pca/0"), T.PCA, 2, 1,
                                               ("a", "b"))), 2, 1),
    ], ids=["cubic", "ghat"])
    def test_wrong_length_relating_element_reports_instead_of_crashing(self, witness, node,
                                                                        sink):
        report = verify_zigzag(self.cut_relating(witness(), node))
        assert not report.valid
        assert {f"relating[{node}]", f"chain[{sink}]"} <= failing_names(report)
        (chain,) = [c for c in report.checks if c.name == f"chain[{sink}]"]
        assert chain.detail == f"relating element at node {node} has the wrong length"


def rank(gens, dim):
    """The rank of the scaled generators, by the `Fraction` oracle's rref."""
    rows = [fractions(g) for g in gens]
    return kernel_oracle.rref(Mat(rows, ncols=dim))[2] if rows else 0


def dependent(node):
    """Whether the node's distinct nonzero generators are linearly dependent."""
    distinct = {g for g in node.generators if any(g[1])}
    return rank(distinct, node.dim) < len(distinct)


def diagonal(node):
    """Whether the node is free on positive multiples of e_0, ..., e_(dim-1), in order."""
    return node.is_free and len(node.generators) == node.dim and all(
        all(a > 0 if i == j else a == 0 for i, a in enumerate(fractions(g)))
        for j, g in enumerate(node.generators))


class SpanSpy:
    """The factorizations (generators, dim) and facet enumerations
    (generators, hull) made, and the double descriptions run, since the last
    `clear`."""

    def __init__(self, monkeypatch):
        self.clear()
        init, enumerate_, rays = (polyhedra._Span.__init__, polyhedra._Span._enumerate,
                                  polyhedra._pointed_cone_rays)

        def spy_init(span, gens, dim):
            self.factored.append((gens, dim))
            init(span, gens, dim)

        def spy_enumerate(span, hull):
            self.enumerated.append((span._gens, hull))
            return enumerate_(span, hull)

        def spy_rays(*args):
            self.rays += 1
            return rays(*args)

        monkeypatch.setattr(polyhedra._Span, "__init__", spy_init)
        monkeypatch.setattr(polyhedra._Span, "_enumerate", spy_enumerate)
        monkeypatch.setattr(polyhedra, "_pointed_cone_rays", spy_rays)

    def clear(self):
        self.factored, self.enumerated, self.rays = [], [], 0


@pytest.fixture
def spans(monkeypatch):
    return SpanSpy(monkeypatch)


class TestCarrierWorkedOutOnce:
    """During one verification the signs of the generators are read off
    their scaled integers, no polytope is built, a free carrier on positive
    multiples of the unit vectors is not factored, each other distinct
    generator list is factored once, and facets are enumerated only for a
    carrier whose distinct nonzero generators are dependent: one per such
    node, none for the rest, and no verifier check reaches the producer's
    `_span_frame`."""

    def witnesses(self, monkeypatch):
        """The witnesses, built first: the verifier then runs without the
        producer's `_span_frame`."""
        witnesses = list(self._witnesses())
        monkeypatch.setattr(polyhedra, "_span_frame", None)
        return witnesses

    def _witnesses(self):
        for tag, build in ((T.PCA, five_node_zigzag), (T.UNIT, span_zigzag),
                           (T.QPLUS, span_zigzag)):
            rng = random.Random(f"carrier-once/{tag.value}")
            for k, extra in ((1, 1), (2, 1), (2, 2), (3, 1)):
                z = build(*lifted_pair(rng, tag, k, extra, ("a", "b")))
                yield z
                yield with_redundant_generators(z)
                if tag is not T.QPLUS:
                    # a FREE_PCA node whose kind check fails is gauged by coordinates
                    bad = replace(z.nodes[0], generators=z.nodes[0].generators[1:])
                    yield replace(z, nodes=(bad,) + z.nodes[1:])

    def test_nonnegativity_and_polytopes(self, monkeypatch, spans):
        built = []
        original_polytope = zigzag.PcaPolytope

        def polytope(dim, gens):
            built.append(gens)
            return original_polytope(dim, gens)

        monkeypatch.setattr(zigzag, "PcaPolytope", polytope)
        hulls = cones = 0
        for z in self.witnesses(monkeypatch):
            built.clear()
            spans.clear()
            report = verify_zigzag(z)
            assert report.valid == (len(z.nodes[0].generators) == z.nodes[0].dim)
            assert built == []
            assert spans.factored == list(dict.fromkeys((n.generators, n.dim) for n in z.nodes
                                                        if not diagonal(n)))
            if report.valid:
                # a producer's witness, redundant generators or not: only its middle node
                middle = z.nodes[len(z.nodes) // 2]
                assert spans.factored == [(middle.generators, middle.dim)]
            assert spans.enumerated == [(n.generators, n.is_pca) for n in z.nodes
                                        if dependent(n)]
            hulls += sum(hull for _, hull in spans.enumerated)
            cones += sum(not hull for _, hull in spans.enumerated)
        assert hulls >= 6 and cones >= 4

    def test_independent_carriers_run_no_double_description(self, monkeypatch, spans):
        witnesses = 0
        for z in self.witnesses(monkeypatch):
            if any(map(dependent, z.nodes)):
                continue
            spans.clear()
            verify_zigzag(z)
            assert spans.rays == 0
            assert len(spans.factored) == len({(n.generators, n.dim) for n in z.nodes
                                               if not diagonal(n)})
            witnesses += 1
        assert witnesses >= 10

    @pytest.mark.parametrize("tag", list(T), ids=lambda t: t.value)
    def test_producer_free_nodes_take_the_diagonal_route(self, tag, spans):
        """Every endpoint node, every pyramid node and every sink of a
        ring-tag cospan a producer writes is decided without a
        factorization, so a producer change that reorders their generators
        shows here.  A ring-tag witness is factored nowhere."""
        build = paper_route(tag)
        cospan = tag in _RING_TAGS
        rng = random.Random(f"carrier-once/diagonal/{tag.value}")
        for k, extra in ((1, 1), (2, 1), (2, 2), (3, 1)):
            z = build(*lifted_pair(rng, tag, k, extra, ("a", "b")))
            free = [i for i, node in enumerate(z.nodes) if node.is_free]
            assert free == ([0, 1, 3, 4] if tag is T.PCA else [0, 1, 2] if cospan else [0, 2])
            assert all(zigzag._diagonal(z.nodes[i].generators, z.nodes[i].dim) for i in free)
            spans.clear()
            assert verify_zigzag(z).valid
            middle = z.nodes[len(z.nodes) // 2]
            assert spans.factored == ([] if cospan else [(middle.generators, middle.dim)])

    @pytest.mark.parametrize("node", [1, 2])
    def test_one_negative_fractional_entry_fails_node_kind(self, node):
        # node 1 is FREE_PCA, node 2 GENERATED_PCA; the signs are read off the
        # scaled integers, so a small negative entry over a large denominator
        # must still show
        z = five_node_zigzag(*lifted_pair(random.Random("carrier-once/sign"), T.PCA, 2, 1,
                                          ("a",)))
        assert z.nodes[node].kind == (FREE_PCA, GENERATED_PCA)[node - 1]
        gens = z.nodes[node].generators
        bad = gens[:-1] + (scaled(fractions(gens[-1])[:-1] + (F(-1, 10**9),)),)
        report = verify_zigzag(replace(z, nodes=z.nodes[:node] + (
            replace(z.nodes[node], generators=bad),) + z.nodes[node + 1:]))
        assert [(c.name, c.detail) for c in report.checks if c.name == f"node-kind[{node}]"] \
            == [(f"node-kind[{node}]", "generators must be nonnegative")]


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
    return LinearCoalgebra(n=len(out), alphabet=("a",), out=svec(out),
                           trans=(identity(len(out)),))


COUNTER = ZigZagNode(kind=FREE_MODULE, generators=(svec([1]),),
                     coalgebra=identity_coalgebra((1,)))


def deep_nat_witness(k):
    """A nat span witness relating the one-state counters x = k and y = k
    through the middle carrier N(1, 1): everything checks at once except
    that (k, k) is in the carrier, which is k times its one generator."""
    middle = ZigZagNode(kind=GENERATED_MODULE, generators=(svec([1, 1]),),
                        coalgebra=identity_coalgebra((1, 0)))
    return ZigZag(functor=CUBIC, tag=T.NAT, alphabet=("a",),
                  nodes=(COUNTER, middle, COUNTER),
                  morphisms=(Morphism(1, 0, Mat([[1, 0]])), Morphism(1, 2, Mat([[0, 1]]))),
                  relating=((1, svec([k, k])),), endpoints=(svec([k]), svec([k])))


def nat_witness(generators, k, m):
    """A nat span witness relating the counters x = y = k + m through the
    middle carrier N(generators), generators of the form (p, p, q), mapped
    to each counter by (x, y, z) -> x + z and y + z.  The hard check is
    (k, k, m) in the carrier."""
    middle = ZigZagNode(kind=GENERATED_MODULE, generators=tuple(map(svec, generators)),
                        coalgebra=identity_coalgebra((1, 0, 1)))
    return ZigZag(functor=CUBIC, tag=T.NAT, alphabet=("a",),
                  nodes=(COUNTER, middle, COUNTER),
                  morphisms=(Morphism(1, 0, Mat([[1, 0, 1]])),
                             Morphism(1, 2, Mat([[0, 1, 1]]))),
                  relating=((1, svec([k, k, m])),), endpoints=(svec([k + m]), svec([k + m])))


def two_generator_nat_witness(k, m):
    """`nat_witness` on the independent generators (1, 1, 0) and (0, 0, 1):
    the coordinates of (k, k, m) are (k, m), read off one factorization."""
    return nat_witness(((1, 1, 0), (0, 0, 1)), k, m)


def dependent_nat_witness(k, m):
    """`nat_witness` on N{(2, 2, 0), (0, 0, 2), (1, 1, 1)}, a copy of
    N{(2, 0), (0, 2), (1, 1)}, whose members are the (a, a, c) with a + c
    even: its generators are dependent, so membership is the budgeted
    descent, which on a non-member enters every target of that parity below
    it, about (k + 1)(m + 1) / 2."""
    return nat_witness(((2, 2, 0), (0, 0, 2), (1, 1, 1)), k, m)


def nat_member(gens, target):
    """The verifier's membership test of a generated nat carrier with the
    integer generators gens, at the rational target."""
    node = ZigZagNode(kind=GENERATED_MODULE, generators=tuple(map(svec, gens)),
                      coalgebra=identity_coalgebra((0,) * len(target)))
    return _carrier(T.NAT, node).member(svec(target))


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
        assert verify_zigzag(dependent_nat_witness(25, 25)).valid
        report = verify_zigzag(dependent_nat_witness(25, 26))
        assert [(c.name, c.detail) for c in report.failures()] == [
            ("relating[1]", "N-monoid membership search exceeded its budget of 50 steps")]

    def test_one_generator_decided_exactly(self, monkeypatch):
        # the carrier decides one generator, as any independent set, by its
        # coordinate: the budget is never reached
        monkeypatch.setattr(zigzag, "MONOID_STEP_BUDGET", 50)
        big = 10 ** 12
        assert nat_member(((1, 1),), (big, big))
        assert not nat_member(((1, 1),), (big, big + 1))
        assert nat_member(((0, 0), (2, 4), (2, 4)), (6, 12))  # one after dedup
        assert not nat_member(((2, 4),), (3, 6))  # 3/2 times the generator
        assert not nat_member(((2, 0, 1),), (4, 1, 2))
        assert not nat_member(((0, 3),), (1, 3))
        assert not nat_member(((0, 3),), (0, 4))
        assert nat_member(((0, 3),), (0, 9))

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
            verdict = nat_member((g,), target)
            assert verdict == box_monoid_member([g], target)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_independent_generators_decided_at_once(self, monkeypatch):
        # the coordinates of (k, k, m) in N{(1, 1, 0), (0, 0, 1)} are (k, m),
        # read off one factorization: the size of k and m costs nothing
        monkeypatch.setattr(zigzag, "MONOID_STEP_BUDGET", 50)
        for k, m in ((10 ** 6, 10 ** 6), (150000, 150001), (0, 10 ** 12)):
            start = time.perf_counter()
            report = verify_zigzag(two_generator_nat_witness(k, m))
            assert report.valid, report.failures()
            assert time.perf_counter() - start < 0.1
        assert not nat_member(((1, 1, 0), (0, 0, 1)), (3, 2, 1))
        assert not nat_member(((1, 1, 0), (0, 0, 1)), (F(1, 2), F(1, 2), 1))

    def test_deep_one_generator_witness_is_valid_at_once(self):
        witness = deep_nat_witness(10 ** 6)
        start = time.perf_counter()
        report = verify_zigzag(witness)
        elapsed = time.perf_counter() - start
        assert report.valid, report.failures()
        assert elapsed < 0.1

    def test_rejects_non_naturals(self):
        assert not nat_member(((1, 0), (0, 1)), (F(1, 2), 1))
        assert not nat_member(((1, 0), (0, 1), (1, 1)), (F(1, 2), 1))
        assert not _nat_monoid_member(((1, 0), (0, 1)), (-1, 1))
        assert not nat_member(((1, 0), (0, 1)), (-1, 1))
        assert _nat_monoid_member((), (0, 0)) and nat_member((), (0, 0))
