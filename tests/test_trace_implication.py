"""The verifier's checks imply equal endpoint traces.

`wazz.zigzag.verify_zigzag` does not compare the endpoint traces: carriers
closed under the letter maps, morphism squares on generators, relating
elements in their carriers and chains that meet already force them equal.
These tests hold it to that on a corpus of witnesses: every witness whose
traces differ, by the oracle's own word closure
(`verify_oracle.trace_agreement`), must fail some check of the verifier.

The corpus is lifted pairs of all eight tags, sizes 1+0 to 3+2 over one and
two letters, each witness taken with every `report_witnesses` mutation and
with mutations aimed at the traces: one entry of an endpoint node's output,
of each of its letter matrices, and of each morphism, moved by 1, -1 or 1/2.
"""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import verify_oracle
from genrandom import lifted_pair, report_witnesses
from matvec_oracle import fraction_rows, fractions
from wazz.automata import SemiringTag
from wazz.linalg import Mat, scaled
from wazz.zigzag import cubic_zigzag, ghat_zigzag, verify_zigzag

T = SemiringTag
SIZES = ((1, 0), (2, 1), (3, 1), (2, 2), (3, 2))
SEEDS = 6


def bumped(m, rng):
    """m with one random entry moved by 1, -1 or 1/2."""
    i, j = rng.randrange(m.nrows), rng.randrange(m.ncols)
    rows = [list(r) for r in fraction_rows(m)]
    rows[i][j] += rng.choice([F(1), F(-1), F(1, 2)])
    return Mat(rows, ncols=m.ncols)


def trace_mutations(z, rng):
    """(label, witness) for the targeted mutations of z: per endpoint node,
    one output entry and one entry of each letter matrix; one entry of each
    morphism."""
    def with_coalgebra(i, **fields):
        nodes = list(z.nodes)
        nodes[i] = replace(nodes[i], coalgebra=replace(nodes[i].coalgebra, **fields))
        return replace(z, nodes=tuple(nodes))

    for i in dict.fromkeys((0, len(z.nodes) - 1)):
        coalg = z.nodes[i].coalgebra
        if not coalg.n:
            continue
        out = list(fractions(coalg.out))
        out[rng.randrange(coalg.n)] += rng.choice([F(1), F(-1), F(1, 2)])
        yield f"endpoint output at node {i}", with_coalgebra(i, out=scaled(out))
        for a, m in enumerate(coalg.trans):
            trans = list(coalg.trans)
            trans[a] = bumped(m, rng)
            yield f"endpoint letter at node {i}, letter {a}", with_coalgebra(
                i, trans=tuple(trans))
    for k, mor in enumerate(z.morphisms):
        if mor.matrix.nrows and mor.matrix.ncols:
            morphisms = list(z.morphisms)
            morphisms[k] = replace(mor, matrix=bumped(mor.matrix, rng))
            yield f"morphism entry at {k}", replace(z, morphisms=tuple(morphisms))


def corpus(tag):
    build = ghat_zigzag if tag is T.PCA else cubic_zigzag
    for seed in range(SEEDS):
        rng = random.Random(f"trace-implication/{tag.value}/{seed}")
        for k, extra in SIZES:
            for alphabet in (("a",), ("a", "b")):
                z = build(*lifted_pair(rng, tag, k, extra, alphabet))
                yield from report_witnesses(z)
                yield from trace_mutations(z, rng)


@pytest.mark.parametrize("tag", list(T), ids=lambda t: t.value)
def test_differing_traces_fail_a_check(tag):
    differ, moved = 0, set()
    for label, w in corpus(tag):
        if verify_oracle.trace_agreement(w).ok:
            continue
        differ += 1
        moved.add(label.split(" at ")[0])
        assert not verify_zigzag(w).valid, label
    # the corpus does move traces, through both kinds of endpoint mutation
    assert differ >= 100
    assert {"endpoint output", "endpoint letter"} <= moved
