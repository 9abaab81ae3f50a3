"""The incremental double description against the recomputing one it
replaced, and the restrictions in the span's coordinates against the ambient
ones they replaced."""

import random
from fractions import Fraction as F

import pytest

from wazz import polyhedra
from wazz.automata import SemiringTag
from wazz.polyhedra import PRODUCT, SCALED, cone_rays, cone_restriction, simplex_restriction

from wazz.linalg import scaled

from matvec_oracle import fractions, vneg

import dd_oracle
from pair_oracle import pair_submodule
from genrandom import lifted_pair

T = SemiringTag


def rand_normals(rng, dim):
    """Up to 3*dim normals with small entries, some repeated, some negated,
    and now and then all drawn from a lower-rank subspace."""
    count = rng.randint(1, 3 * dim)
    rank = rng.randint(1, dim) if rng.random() < 0.25 else dim
    basis = [[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(dim)]
             for _ in range(rank)]
    normals = []
    for _ in range(count):
        roll = rng.random()
        if normals and roll < 0.15:
            normals.append(rng.choice(normals))
        elif normals and roll < 0.3:
            normals.append(vneg(rng.choice(normals)))
        elif rank < dim:
            coeffs = [rng.randint(-2, 2) for _ in basis]
            normals.append(tuple(sum((c * b[j] for c, b in zip(coeffs, basis)), F(0))
                                 for j in range(dim)))
        else:
            normals.append(tuple(F(rng.randint(-3, 3), rng.randint(1, 3))
                                 for _ in range(dim)))
    return normals


@pytest.mark.parametrize("dim", range(1, 8))
def test_random_systems_match_oracle(dim):
    rng = random.Random(f"dd-oracle/{dim}")
    for _ in range(100 if dim < 6 else 40):
        normals = rand_normals(rng, dim)
        assert cone_rays(normals, dim) == dd_oracle.cone_rays(normals, dim), normals


def test_many_constraints_match_oracle():
    # cones with many facets relative to the dimension, where most pairs of
    # rays are not adjacent and the precheck does most of the rejecting
    rng = random.Random("dd-oracle/crowded")
    for _ in range(20):
        dim = rng.randint(3, 5)
        normals = [tuple(F(rng.randint(-4, 4)) for _ in range(dim - 1)) + (F(-1),)
                   for _ in range(rng.randint(dim, 4 * dim))]
        assert cone_rays(normals, dim) == dd_oracle.cone_rays(normals, dim), normals


@pytest.fixture
def checked_cone_rays(monkeypatch):
    """Route every `cone_rays` call in polyhedra, which the ambient
    restrictions make, through an oracle comparison; returns the list of
    systems seen."""
    seen = []

    def checked(normals, dim):
        got = cone_rays(normals, dim)
        assert got == dd_oracle.cone_rays(normals, dim), (normals, dim)
        seen.append((normals, dim))
        return got

    monkeypatch.setattr(polyhedra, "cone_rays", checked)
    return seen


def assert_restrictions_match_ambient(span, n1, n2, families=(PRODUCT, SCALED)):
    """The restrictions in the span's coordinates equal the ambient ones, on
    a span of scaled vectors."""
    span = list(span)
    assert cone_restriction(span) == dd_oracle.ambient_cone_restriction(span), span
    for family in families:
        got = simplex_restriction(span, family, n1, n2)
        assert got == dd_oracle.ambient_simplex_restriction(span, family, n1, n2), \
            (span, family, n1, n2)


def lifted_bases(rng, tag, count):
    """(pair closure word images, n1, n2) of `count` lifted pairs, 1-3 + 0-2
    states: a spanning set in no echelon form."""
    for _ in range(count):
        aut1, x1, aut2, x2 = lifted_pair(rng, tag, rng.randint(1, 3), rng.randint(0, 2),
                                         ("a", "b")[:rng.randint(1, 2)])
        yield pair_submodule(aut1, x1, aut2, x2)[0], aut1.n, aut2.n


@pytest.mark.parametrize("tag", [T.QPLUS, T.RPLUS])
def test_cone_restriction_systems_match_oracle(tag, checked_cone_rays):
    rng = random.Random(f"dd-oracle/cone/{tag.value}")
    for basis, n1, n2 in lifted_bases(rng, tag, 15):
        assert_restrictions_match_ambient(basis, n1, n2)
    assert checked_cone_rays


@pytest.mark.parametrize("tag", [T.UNIT, T.PCA])
@pytest.mark.parametrize("family", [PRODUCT, SCALED])
def test_simplex_restriction_systems_match_oracle(tag, family, checked_cone_rays):
    rng = random.Random(f"dd-oracle/simplex/{tag.value}/{family}")
    for basis, n1, n2 in lifted_bases(rng, tag, 15):
        assert_restrictions_match_ambient(basis, n1, n2, families=(family,))
    assert checked_cone_rays


def rand_span(rng, dim):
    """Up to 5 small vectors of length dim, with repeats, dependent vectors
    and now and then a coordinate on which all of them vanish."""
    span = []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if span and roll < 0.2:
            span.append(rng.choice(span))
        elif len(span) > 1 and roll < 0.4:
            a, b = rng.sample(span, 2)
            c = F(rng.randint(-2, 2), rng.randint(1, 2))
            span.append(tuple(x + c * y for x, y in zip(a, b)))
        else:
            span.append(tuple(F(rng.randint(-2, 3), rng.randint(1, 3)) for _ in range(dim)))
    if dim and rng.random() < 0.3:
        i = rng.randrange(dim)
        span = [v[:i] + (F(0),) + v[i + 1:] for v in span]
    return span


@pytest.mark.parametrize("dim", range(1, 7))
def test_random_spans_match_ambient(dim):
    rng = random.Random(f"dd-oracle/span/{dim}")
    for _ in range(60):
        n1 = rng.randint(0, dim)
        assert_restrictions_match_ambient(map(scaled, rand_span(rng, dim)), n1, dim - n1)


@pytest.mark.parametrize("dim", range(1, 7))
def test_vertex_order_is_the_fraction_order(dim):
    """`simplex_restriction` sorts its vertices on integers over one common
    denominator; the order is that of the `Fraction` tuples it sorted
    before, which the witness bytes follow."""
    rng = random.Random(f"dd-oracle/vertex-order/{dim}")
    mixed = 0
    for _ in range(60):
        span, n1 = [scaled(v) for v in rand_span(rng, dim)], rng.randint(0, dim)
        for family in (PRODUCT, SCALED):
            vertices = simplex_restriction(span, family, n1, dim - n1).generators
            got = [fractions(v) for v in vertices]
            assert got == dd_oracle.fraction_simplex_vertices(span, family, n1, dim - n1)
            mixed += len({d for d, _ in vertices}) > 1
    assert mixed or dim < 3  # from dimension 3 on, some vertex lists mix denominators


@pytest.mark.parametrize("span, n1, n2", [
    ([], 0, 0),
    ([()], 0, 0),
    ([], 2, 1),
    ([(0, 0, 0)], 1, 2),
    ([(1, 0, 2), (2, 0, 4)], 2, 1),         # a vanishing coordinate, duplicates
    ([(1, -1, 0), (0, 1, 1)], 0, 3),
    ([(1, 1, 0), (F(1, 2), 0, 3)], 3, 0),
    ([(1, -1), (-1, 1)], 1, 1),             # meets the orthant in 0 only
], ids=["empty-dim0", "dim0", "empty", "zero-vector", "vanishing-coordinate",
        "n1-zero", "n2-zero", "origin-only"])
def test_degenerate_spans_match_ambient(span, n1, n2):
    assert_restrictions_match_ambient([scaled(v) for v in span], n1, n2)


@pytest.mark.parametrize("tag", [T.QPLUS, T.RPLUS, T.UNIT, T.PCA])
def test_twelve_plus_two_pairs_match_ambient(tag):
    rng = random.Random(f"dd-oracle/12+2/{tag.value}")
    aut1, x1, aut2, x2 = lifted_pair(rng, tag, 12, 2, ("a", "b"))
    assert_restrictions_match_ambient(pair_submodule(aut1, x1, aut2, x2)[0], aut1.n, aut2.n)
