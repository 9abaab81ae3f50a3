"""The span witness for the ring and field tags (`int`, `q`, `real`), as
`cubic_zigzag` built it before its cospan: both endpoints receive a
projection from the pair closure itself, a generated module on the
closure's scaled word images (`pair_oracle.pair_submodule`, over Z its HNF
rows) with the block-diagonal coalgebra of both automata.  It is the
differential oracle of the cospan producer, and the witness of tests that
pin the span shape.  `paper_route` names, per tag, the producer of the
paper's own construction, for the tests whose subject it is."""

from pair_oracle import pair_submodule
from wazz.automata import SemiringTag
from wazz.linalg import _concat
from wazz.zigzag import (CUBIC, GENERATED_MODULE, Morphism, ZigZag, ZigZagNode,
                         _RING_TAGS as RING_TAGS, _free_node, _projections, cubic_zigzag,
                         five_node_zigzag, span_zigzag)


def paper_route(tag):
    """The producer that writes the paper's witness for the tag, with no
    cospan first: five nodes for `pca` (`five_node_zigzag`), the span for
    `nat`, `qplus`, `rplus` and `unit` (`span_zigzag`), and for the ring
    tags `cubic_zigzag`, whose witness is always the quotient's cospan."""
    if tag is SemiringTag.PCA:
        return five_node_zigzag
    return cubic_zigzag if tag in RING_TAGS else span_zigzag


def ring_span_zigzag(aut1, x1, aut2, x2):
    """Span witness of a ring-tag pair, or NotEquivalent with the
    shortlex-least separating word."""
    if aut1.tag not in RING_TAGS:
        raise ValueError(f"tag {aut1.tag.value} is not a ring tag")
    basis, paired = pair_submodule(aut1, x1, aut2, x2)
    middle = ZigZagNode(kind=GENERATED_MODULE, generators=tuple(basis), coalgebra=paired)
    p1, p2 = _projections(aut1.n, aut2.n)
    return ZigZag(
        functor=CUBIC, tag=aut1.tag, alphabet=aut1.alphabet,
        nodes=(_free_node(aut1.coalgebra), middle, _free_node(aut2.coalgebra)),
        morphisms=(Morphism(1, 0, p1), Morphism(1, 2, p2)),
        relating=((1, _concat(x1, x2)),),
        endpoints=(x1, x2),
    )
