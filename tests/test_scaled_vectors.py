"""One vector form from parse to print: every vector of the `equiv` ->
`zigzag` -> `verify` pipeline is scaled, (d, ints) with d > 0, ints a tuple
of `int` and gcd(d, *ints) == 1.  The form is canonical, so records built
from equal rationals compare and hash equal however the rationals were
given, and the pipeline builds no `Fraction` on a valid input."""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from wazz.automata import SemiringTag, WeightedAutomaton, automaton_to_text
from wazz.cli import main
from wazz.formats import LineReader
from wazz.linalg import Mat, _lowest_terms, scaled, unit
from wazz.polyhedra import PcaPolytope
from wazz.zigzag import (CUBIC, FREE_MODULE, GENERATED_MODULE, Morphism, ZigZag, ZigZagNode,
                         cubic_zigzag, ghat_zigzag)

from genrandom import lifted_pair, zero_one_weight
from matvec_oracle import fractions

T = SemiringTag


def is_scaled(v, n):
    den, ints = v
    return (type(den) is int and den > 0 and type(ints) is tuple and len(ints) == n
            and all(type(a) is int for a in ints) and gcd(den, *ints) == 1)


def spellings(v, rng):
    """The rationals v given five ways, each through `scaled`: as
    `Fraction`s, with integral entries as int, as one (k d, k ints) put in
    lowest terms, as a reader's row of literals not in lowest terms, and as
    `Fraction`s of a subclass."""
    class Sub(F):
        pass

    d, ints = scaled(v)
    k = rng.randint(2, 9)
    row = [f"{a * k}/{d * k}" for a in ints]
    reader = LineReader(" ".join(row) if row else "", "row.txt")
    return [scaled([F(a) for a in v]),
            scaled([int(a) if F(a).denominator == 1 else F(a) for a in v]),
            _lowest_terms((k * d, [k * a for a in ints])),
            reader.row(*reader.lines[0], len(v), start=0) if row else scaled(()),
            scaled([Sub(a) for a in v])]


class TestCanonicalForm:
    def test_equal_rationals_one_form(self):
        rng = random.Random("scaled/canonical")
        vectors = [(), (0,), (0, 0, 0), (F(0, 5), 0), (1,), (F(-3, 6), F(4, 8), 2)]
        for _ in range(200):
            n = rng.randint(0, 5)
            vectors.append(tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 6, 10**12)))
                                 for _ in range(n)))
        for v in vectors:
            forms = spellings(v, rng)
            assert all(is_scaled(f, len(v)) for f in forms), forms
            assert len(set(forms)) == 1 and len({hash(f) for f in forms}) == 1
            assert fractions(forms[0]) == tuple(F(a) for a in v)
        assert scaled(()) == (1, ()) and scaled((0, F(0, 7))) == (1, (0, 0))

    def test_records_compare_and_hash_equal(self):
        rng = random.Random("scaled/records")
        trans = (Mat([[F(1, 2), 0], [0, F(1, 3)]]),)
        for out, x in (((F(1, 2), F(1, 4)), (F(2, 3), 0)), ((0, 0), (0, 0)),
                       ((1, F(1, 6)), (F(1, 9), F(1, 9)))):
            auts = {WeightedAutomaton(tag=T.QPLUS, n=2, alphabet=("a",), out=o, trans=trans)
                    for o in spellings(out, rng)}
            assert len(auts) == 1
            nodes = {ZigZagNode(kind=GENERATED_MODULE, generators=(g, unit(2, 0)),
                                coalgebra=next(iter(auts)).coalgebra)
                     for g in spellings(x, rng)}
            assert len(nodes) == 1
            polytopes = {PcaPolytope(2, (g,)) for g in spellings(x, rng)}
            assert len(polytopes) == 1

    def test_length_zero_records(self):
        rng = random.Random("scaled/empty")

        def node(kind, out):
            coalg = WeightedAutomaton(tag=T.Q, n=0, alphabet=("a",), out=out,
                                      trans=(Mat((), ncols=0),)).coalgebra
            return ZigZagNode(kind=kind, generators=(), coalgebra=coalg)

        witnesses = set()
        for empty in spellings((), rng):
            witnesses.add(ZigZag(functor=CUBIC, tag=T.Q, alphabet=("a",),
                                 nodes=(node(FREE_MODULE, empty), node(GENERATED_MODULE, empty),
                                        node(FREE_MODULE, empty)),
                                 morphisms=(Morphism(1, 0, Mat((), ncols=0)),
                                            Morphism(1, 2, Mat((), ncols=0))),
                                 relating=((1, empty),), endpoints=(empty, empty)))
        assert len(witnesses) == 1

    @pytest.mark.parametrize("tag", list(T), ids=lambda t: t.value)
    def test_pipeline_vectors_are_scaled(self, tag):
        rng = random.Random(f"scaled/pipeline/{tag.value}")
        for k, extra in ((1, 1), (2, 1), (3, 2)):
            aut1, x1, aut2, x2 = lifted_pair(rng, tag, k, extra, ("a", "b"))
            z = (ghat_zigzag if tag is T.PCA else cubic_zigzag)(aut1, x1, aut2, x2)
            vectors = [(g, node.dim) for node in z.nodes for g in node.generators]
            vectors += [(node.coalgebra.out, node.dim) for node in z.nodes]
            vectors += [(v, z.nodes[i].dim) for i, v in z.relating]
            vectors += [(z.endpoints[0], z.nodes[0].dim), (z.endpoints[1], z.nodes[-1].dim)]
            assert all(is_scaled(v, n) for v, n in vectors)


def pipeline_files(tmp_path):
    """Per tag, two files of an equivalent lifted pair and two of a pair that
    one zeroed weight may make inequivalent."""
    rng = random.Random("scaled/spy")
    files = []
    for tag in T:
        for i, k in enumerate((2, 3)):
            aut1, x1, aut2, x2 = lifted_pair(rng, tag, k, 1, ("a", "b"))
            if i:
                aut1 = zero_one_weight(rng, aut1)
            paths = []
            for side, aut, x in (("l", aut1, x1), ("r", aut2, x2)):
                path = tmp_path / f"{tag.value}{i}{side}.wa"
                path.write_text(automaton_to_text(aut, x))
                paths.append(str(path))
            files.append((tag, paths))
    return files


def test_pipeline_builds_no_fraction(tmp_path, monkeypatch, capsys):
    """`equiv`, `zigzag -o` and `verify` on valid inputs of all eight tags
    build no `Fraction`: each vector is read, carried and printed as
    integers, and only `trace`, `gauge` and failure details make one."""
    files = pipeline_files(tmp_path)
    built, new = [], F.__new__

    def spy(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    codes = []
    monkeypatch.setattr(F, "__new__", spy)
    F(1, 3)  # the spy is in place
    assert built == [(1, 3)]
    built.clear()
    for tag, (left, right) in files:
        witness = left.replace(".wa", ".zz")
        codes.append([main(["equiv", left, right]),
                      main(["zigzag", left, right, "-o", witness])])
        if codes[-1] == [0, 0]:
            codes[-1].append(main(["verify", witness]))
    monkeypatch.undo()
    capsys.readouterr()
    assert built == []
    # the lifted pairs verify; some perturbed pairs are not equivalent
    assert codes[::2] == [[0, 0, 0]] * len(T) and [1, 1] in codes[1::2]
