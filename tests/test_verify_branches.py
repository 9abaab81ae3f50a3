"""Hand-made witnesses for the verifier's rules that no producer witness
breaks: the dependent `int` carrier, a morphism of the wrong shape, a
functor that does not fit its tag, a node alphabet other than the
witness's, a relating entry that names no node, and a relating element at
a sink.  Each report is checked
through `wazz verify` where the text format can say it, by name and
detail, and held to `tests/verify_oracle.py`."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from wazz.automata import LinearCoalgebra, SemiringTag as T, WeightedAutomaton
from wazz.cli import main
from wazz.linalg import Mat
from wazz.zigzag import (CUBIC, GENERATED_MODULE, Morphism, ZigZag, ZigZagNode, cubic_zigzag,
                         ghat_zigzag, parse_zigzag, verify_zigzag, zigzag_to_text)

import verify_oracle
from genrandom import lifted_pair
from matvec_oracle import svec
from test_integer_verifier import assert_matches_oracle
from test_zigzag import COUNTER, identity_coalgebra

SHAPE = "shape: not an alternating chain of adjacent morphisms"


def int_witness(element):
    """An `int` span witness whose middle carrier is generated by the
    dependent (2, 2, 0), (0, 0, 2) and (1, 1, 1): the lattice of the
    (a, a, c) with a + c even.  The relating element `element` = (a, a, c)
    is mapped to both counters as a + c."""
    middle = ZigZagNode(kind=GENERATED_MODULE,
                        generators=tuple(map(svec, ((2, 2, 0), (0, 0, 2), (1, 1, 1)))),
                        coalgebra=identity_coalgebra((1, 0, 1)))
    a, _, c = element
    return ZigZag(functor=CUBIC, tag=T.INT, alphabet=("a",), nodes=(COUNTER, middle, COUNTER),
                  morphisms=(Morphism(1, 0, Mat([[1, 0, 1]])),
                             Morphism(1, 2, Mat([[0, 1, 1]]))),
                  relating=((1, svec(element)),), endpoints=(svec([a + c]), svec([a + c])))


def verify_text(tmp_path, capsys, z):
    """(exit code, stdout) of `wazz verify` on z's text, which reads back
    as z."""
    path = tmp_path / "w.zz"
    path.write_text(zigzag_to_text(z))
    assert parse_zigzag(path.read_text()) == z
    code = main(["verify", str(path)])
    return code, capsys.readouterr().out


def assert_oracle(z):
    got = verify_zigzag(z)
    assert_matches_oracle(got, verify_oracle.verify_zigzag(z))
    return got


def failures(report):
    return [(c.name, c.detail) for c in report.checks if not c.ok]


class TestDependentIntCarrier:
    def test_member_of_the_lattice_is_valid(self, tmp_path, capsys):
        z = int_witness((1, 1, 1))
        assert assert_oracle(z).valid
        code, out = verify_text(tmp_path, capsys, z)
        assert (code, out) == (0, f"VALID ({len(verify_zigzag(z).checks)} checks passed)\n")

    def test_element_off_the_lattice_is_invalid(self, tmp_path, capsys):
        # (1, 1, 0) lies in the rational span but not in the lattice
        z = int_witness((1, 1, 0))
        report = assert_oracle(z)
        assert failures(report) == [("relating[1]", "relating element outside the carrier")]
        code, out = verify_text(tmp_path, capsys, z)
        assert code == 1
        assert out == (f"INVALID (1 of {len(report.checks)} checks failed)\n"
                       "  relating[1]: relating element outside the carrier\n")


class TestShape:
    def test_morphism_of_the_wrong_shape(self):
        # the text format cannot say it: a block has as many lines as the source's dimension
        z = int_witness((1, 1, 1))
        z = replace(z, morphisms=(Morphism(1, 0, Mat([[1, 0]])), z.morphisms[1]))
        assert failures(assert_oracle(z)) == [tuple(SHAPE.split(": "))]

    def test_node_alphabet_other_than_the_witness_alphabet(self):
        # nor this: every node of a witness file reads the header's alphabet
        z = int_witness((1, 1, 1))
        c = z.nodes[1].coalgebra
        other = replace(z.nodes[1], coalgebra=LinearCoalgebra(n=c.n, alphabet=("b",),
                                                              out=c.out, trans=c.trans))
        z = replace(z, nodes=(z.nodes[0], other, z.nodes[2]))
        assert failures(assert_oracle(z)) == [tuple(SHAPE.split(": "))]

    def test_relating_entry_that_names_no_node(self):
        # nor this: the reader rejects a relating index out of range
        left = WeightedAutomaton(tag=T.Q, n=1, alphabet=("a",), out=svec([1]),
                                 trans=(Mat([[F(1, 2)]]),))
        right = WeightedAutomaton(tag=T.Q, n=2, alphabet=("a",), out=svec([1, 0]),
                                  trans=(Mat([[F(1, 2), 0], [0, 1]]),))
        z = cubic_zigzag(left, svec([1]), right, svec([1, 0]))
        assert verify_zigzag(z).valid
        stray = replace(z, relating=z.relating + ((7, svec([1])),))
        assert failures(assert_oracle(stray)) == [tuple(SHAPE.split(": "))]

    @pytest.mark.parametrize("tag, header, wrong", [
        (T.PCA, "zigzag ghat pca", "zigzag ghat unit"),
        (T.Q, "zigzag cubic q", "zigzag cubic pca"),
    ])
    def test_functor_that_does_not_fit_the_tag(self, tmp_path, capsys, tag, header, wrong):
        pair = lifted_pair(random.Random(f"verify-branches/{tag.value}"), tag, 1, 1, ("a",))
        text = zigzag_to_text((ghat_zigzag if tag is T.PCA else cubic_zigzag)(*pair))
        assert text.startswith(header + "\n")
        good, bad = tmp_path / "good.zz", tmp_path / "bad.zz"
        good.write_text(text)
        bad.write_text(text.replace(header, wrong, 1))
        assert main(["verify", str(good)]) == 0
        capsys.readouterr()
        assert main(["verify", str(bad)]) == 1
        assert capsys.readouterr().out == f"INVALID (1 of 1 checks failed)\n  {SHAPE}\n"
        assert_oracle(parse_zigzag(bad.read_text()))


class TestSinkRelating:
    def test_sink_with_a_relating_element(self, tmp_path, capsys):
        z = int_witness((1, 1, 1))
        z = replace(z, relating=((0, svec([2])),) + z.relating)
        report = assert_oracle(z)
        assert failures(report) == [("relating[0]", "sink nodes carry no relating element")]
        code, out = verify_text(tmp_path, capsys, z)
        assert code == 1
        assert out == (f"INVALID (1 of {len(report.checks)} checks failed)\n"
                       "  relating[0]: sink nodes carry no relating element\n")
