"""The verifier's diagonal route against its `_Span` route.

A free node whose j-th generator is c_j e_j, c_j > 0, for every j is decided
without a factorization (`wazz.zigzag._diagonal`): its coordinates are one
integer scaling per entry.  On such nodes, for every tag and both free
kinds, the membership and the gauge must be the ones the `_Span` route gives
for the same generators.  A node that is almost diagonal (permuted unit
vectors, a zero or negative diagonal entry, one entry off the diagonal, one
generator short, or a generated kind) must keep the `_Span` route, and its
witness the report of `tests/verify_oracle.py`."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

import verify_oracle
from genrandom import lifted_pair
from matvec_oracle import fractions, identity, svec
from wazz import zigzag
from wazz.automata import LinearCoalgebra, SemiringTag
from wazz.linalg import scaled
from wazz.polyhedra import INFINITY
from wazz.zigzag import (FREE_MODULE, FREE_PCA, GENERATED_MODULE, GENERATED_PCA, ZigZagNode,
                         _carrier, cubic_zigzag, ghat_zigzag, verify_zigzag)

T = SemiringTag


def node_on(kind, diagonal):
    """A node of the given kind on the generators c_j e_j."""
    dim = len(diagonal)
    gens = tuple(scaled([c if i == j else 0 for i in range(dim)]) for j, c in enumerate(diagonal))
    coalgebra = LinearCoalgebra(n=dim, alphabet=("a",), out=svec([0] * dim),
                                trans=(identity(dim),))
    return ZigZagNode(kind=kind, generators=gens, coalgebra=coalgebra)


def diagonals(rng, dim):
    """Positive diagonals: all ones, small fractions and large denominators."""
    yield [F(1)] * dim
    for _ in range(3):
        yield [F(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(dim)]
    yield [F(rng.randint(1, 10**9), rng.randint(10**11, 10**12)) for _ in range(dim)]


def probes(rng, diagonal):
    """Scaled vectors around the carrier: zero, the generators, their sum
    over dim (gauge 1), combinations of them with negative, fractional, zero
    and above-1 coefficients, and random points."""
    dim = len(diagonal)
    coefficient = [F(-1), F(0), F(1, 3), F(1, 2), F(1), F(2), F(3), F(5, 2)]
    points = [[F(0)] * dim] + [[c if i == j else 0 for i in range(dim)]
                               for j, c in enumerate(diagonal)]
    if dim:
        points.append([c / dim for c in diagonal])
    for _ in range(12):
        points.append([rng.choice(coefficient) * c for c in diagonal])
        points.append([min(F(1), abs(rng.choice(coefficient))) * c / dim for c in diagonal])
    points += [[F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(dim)] for _ in range(4)]
    return [scaled(p) for p in points]


def gauge_value(g):
    return g if g is INFINITY else F(*g)


def forbidden(*args):
    raise AssertionError("a diagonal carrier was factored")


def both_routes(tag, node, monkeypatch):
    """(the diagonal route's carrier, the `_Span` route's) of the node."""
    with monkeypatch.context() as m:
        m.setattr(zigzag, "span_factors", forbidden)
        fast = _carrier(tag, node)
    with monkeypatch.context() as m:
        m.setattr(zigzag, "_diagonal", lambda gens, dim: None)
        slow = _carrier(tag, node)
    return fast, slow


@pytest.mark.parametrize("kind", [FREE_MODULE, FREE_PCA])
@pytest.mark.parametrize("tag", list(T), ids=lambda t: t.value)
def test_diagonal_route_matches_span_route(tag, kind, monkeypatch):
    rng = random.Random(f"diagonal/{tag.value}/{kind}")
    verdicts, gauges = set(), set()
    for dim in range(7):
        for diagonal in diagonals(rng, dim):
            node = node_on(kind, diagonal)
            assert zigzag._diagonal(node.generators, dim) is not None
            fast, slow = both_routes(tag, node, monkeypatch)
            assert fast.kind_detail == slow.kind_detail == ""
            for v in probes(rng, diagonal):
                assert fast.member(v) == slow.member(v), (diagonal, v)
                verdicts.add(fast.member(v))
                if kind == FREE_PCA:
                    g = gauge_value(fast.gauge(v))
                    assert g == gauge_value(slow.gauge(v)), (diagonal, v)
                    gauges.add("inf" if g is INFINITY else (g > 1) - (g < 1))
    # a free q/real module is the whole space
    assert verdicts == ({True} if kind == FREE_MODULE and tag in (T.Q, T.REAL) else {True, False})
    assert gauges == ({"inf", -1, 0, 1} if kind == FREE_PCA else set())


def near_misses(node):
    """(label, node) for the near-diagonal variants of a diagonal free node
    of dimension at least 2; each keeps the `_Span` route."""
    gens, dim = node.generators, node.dim
    first = fractions(gens[0])
    off = scaled(first[:1] + (F(1, 3),) + first[2:])
    return [("permuted", replace(node, generators=gens[1:] + gens[:1])),
            ("zero entry", replace(node, generators=(scaled([0] * dim),) + gens[1:])),
            ("negative entry", replace(node, generators=(scaled([-a for a in first]),) + gens[1:])),
            ("off-diagonal entry", replace(node, generators=(off,) + gens[1:])),
            ("one generator short", replace(node, generators=gens[:-1])),
            ("generated", replace(node, kind=GENERATED_PCA if node.is_pca else GENERATED_MODULE))]


def checks(report):
    return [(c.name, c.ok, c.detail) for c in report.checks]


@pytest.mark.parametrize("tag", list(T), ids=lambda t: t.value)
def test_near_misses_keep_the_span_route_and_the_oracle_report(tag, monkeypatch):
    build = ghat_zigzag if tag is T.PCA else cubic_zigzag
    z = build(*lifted_pair(random.Random(f"diagonal/near/{tag.value}"), tag, 2, 1, ("a", "b")))
    free = [i for i, node in enumerate(z.nodes) if node.is_free]
    assert all(zigzag._diagonal(z.nodes[i].generators, z.nodes[i].dim) for i in free)
    diagonal_carriers = []
    route = zigzag._diagonal_carrier
    monkeypatch.setattr(zigzag, "_diagonal_carrier",
                        lambda *args: diagonal_carriers.append(args) or route(*args))
    labels = set()
    for i in free:
        if z.nodes[i].dim < 2:
            continue
        for label, miss in near_misses(z.nodes[i]):
            diagonal_carriers.clear()
            w = replace(z, nodes=z.nodes[:i] + (miss,) + z.nodes[i + 1:])
            got = verify_zigzag(w)
            # every other free node still takes the diagonal route, this one not
            assert len(diagonal_carriers) == len(free) - 1, label
            want = checks(verify_oracle.verify_zigzag(w))
            assert want.pop()[0] == "trace-agreement"
            assert checks(got) == want, (i, label)
            labels.add((label, got.valid))
    assert {label for label, _ in labels} == {label for label, _ in near_misses(z.nodes[0])}
    assert ("permuted", True) in labels and ("generated", False) in labels
