"""The verifier's `shape` check against the oracle's on malformed chains.

Witnesses of every producer (the quotient cospans of `cubic_zigzag` and
`ghat_zigzag`, `span_zigzag` and `five_node_zigzag`) take one or two
structural mutations: a morphism flipped, duplicated, dropped, retargeted
or turned into a loop, a node removed, a relating element repeated, the
morphism list reversed, two matrices swapped, or the chain cut to one node.
Each report, passing or failing, must be the one `tests/verify_oracle.py`
gives, whose shape check rebuilds the chain from per-node tables."""

import random
from dataclasses import replace

from wazz.automata import SemiringTag as T
from wazz.zigzag import cubic_zigzag, five_node_zigzag, ghat_zigzag, span_zigzag

from genrandom import lifted_pair
from test_integer_verifier import assert_oracle_report


def _with_morphism(z, k, mor):
    mors = list(z.morphisms)
    mors[k] = mor
    return replace(z, morphisms=tuple(mors))


def flip(z, rng):
    k = rng.randrange(len(z.morphisms))
    mor = z.morphisms[k]
    return _with_morphism(z, k, replace(mor, src=mor.dst, dst=mor.src))


def duplicate(z, rng):
    mors = list(z.morphisms)
    mors.insert(rng.randrange(len(mors) + 1), rng.choice(mors))
    return replace(z, morphisms=tuple(mors))


def drop(z, rng):
    mors = list(z.morphisms)
    del mors[rng.randrange(len(mors))]
    return replace(z, morphisms=tuple(mors))


def retarget(z, rng):
    """One end of a morphism moved to another index, in range or not."""
    k = rng.randrange(len(z.morphisms))
    mor = z.morphisms[k]
    end = rng.choice(("src", "dst"))
    index = rng.choice([i for i in range(-1, len(z.nodes) + 2) if i != getattr(mor, end)])
    return _with_morphism(z, k, replace(mor, **{end: index}))


def loop(z, rng):
    k = rng.randrange(len(z.morphisms))
    mor = z.morphisms[k]
    return _with_morphism(z, k, replace(mor, dst=mor.src))


def remove_node(z, rng):
    nodes = list(z.nodes)
    del nodes[rng.randrange(len(nodes))]
    return replace(z, nodes=tuple(nodes))


def repeat_relating(z, rng):
    return replace(z, relating=z.relating + (rng.choice(z.relating),))


def reverse(z, rng):
    return replace(z, morphisms=z.morphisms[::-1])


def swap_matrices(z, rng):
    k, l = rng.sample(range(len(z.morphisms)), 2)
    mors = list(z.morphisms)
    mors[k], mors[l] = (replace(mors[k], matrix=mors[l].matrix),
                        replace(mors[l], matrix=mors[k].matrix))
    return replace(z, morphisms=tuple(mors))


def one_node(z, rng):
    return replace(z, nodes=z.nodes[:1], morphisms=(),
                   relating=tuple((i, v) for i, v in z.relating if i == 0))


MUTATIONS = (flip, duplicate, drop, retarget, loop, remove_node, repeat_relating, reverse,
             swap_matrices, one_node)


# the morphisms a mutation needs
NEEDS = {flip: 1, duplicate: 1, drop: 1, retarget: 1, loop: 1, swap_matrices: 2}


def applicable(z):
    """The mutations that z's lists leave room for."""
    return [m for m in MUTATIONS if len(z.morphisms) >= NEEDS.get(m, 0)
            and (z.relating or m is not repeat_relating) and (z.nodes or m is not remove_node)]


def producer_witnesses():
    """(label, witness) from each producer on seeded pairs, three or five
    nodes, cospans and spans alike."""
    rng = random.Random("shape-mutations")
    for tag in (T.Q, T.INT, T.NAT, T.QPLUS, T.UNIT):
        for k, extra in ((1, 1), (2, 1)):
            pair = lifted_pair(rng, tag, k, extra, ("a", "b"))
            yield f"{tag.value} cubic {k}+{extra}", cubic_zigzag(*pair)
            if tag not in (T.Q, T.INT):
                yield f"{tag.value} span {k}+{extra}", span_zigzag(*pair)
    for k, extra in ((1, 1), (2, 1), (3, 1)):
        pair = lifted_pair(rng, T.PCA, k, extra, ("a", "b"))
        yield f"pca ghat {k}+{extra}", ghat_zigzag(*pair)
        yield f"pca five-node {k}+{extra}", five_node_zigzag(*pair)


def test_mutated_chains_get_the_oracles_reports():
    rng = random.Random("shape-mutations/draws")
    shapes = []
    for label, z in producer_witnesses():
        for _ in range(88):
            w, names = z, []
            for _ in range(rng.randint(1, 2)):
                if not (choices := applicable(w)):
                    break
                mutate = rng.choice(choices)
                w = mutate(w, rng)
                names.append(mutate.__name__)
            report = assert_oracle_report(w, f"{label}: {' then '.join(names)}")
            shapes.append(report.checks[0].ok)
    # malformed chains fail the shape check, and reordered ones run every check
    assert len(shapes) > 1000 and 0 < sum(shapes) < len(shapes) / 2
