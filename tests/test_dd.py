"""The incremental double description against the recomputing one it replaced."""

import random
from fractions import Fraction as F

import pytest

from wazz import polyhedra
from wazz.automata import SemiringTag, pair_submodule
from wazz.linalg import vneg
from wazz.polyhedra import PRODUCT, SCALED, cone_rays, cone_restriction, simplex_restriction

import dd_oracle
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
    """Route every `cone_rays` call in polyhedra through an oracle comparison;
    returns the list of systems seen."""
    seen = []

    def checked(normals, dim):
        got = cone_rays(normals, dim)
        assert got == dd_oracle.cone_rays(normals, dim), (normals, dim)
        seen.append((normals, dim))
        return got

    monkeypatch.setattr(polyhedra, "cone_rays", checked)
    return seen


@pytest.mark.parametrize("tag", [T.QPLUS, T.RPLUS])
def test_cone_restriction_systems_match_oracle(tag, checked_cone_rays):
    rng = random.Random(f"dd-oracle/cone/{tag.value}")
    for _ in range(15):
        aut1, x1, aut2, x2 = lifted_pair(rng, tag, rng.randint(1, 3), rng.randint(0, 2),
                                         ("a", "b")[:rng.randint(1, 2)])
        basis, _ = pair_submodule(aut1, x1, aut2, x2)
        cone_restriction(basis)
    assert checked_cone_rays


@pytest.mark.parametrize("tag", [T.UNIT, T.PCA])
@pytest.mark.parametrize("family", [PRODUCT, SCALED])
def test_simplex_restriction_systems_match_oracle(tag, family, checked_cone_rays):
    rng = random.Random(f"dd-oracle/simplex/{tag.value}/{family}")
    for _ in range(15):
        aut1, x1, aut2, x2 = lifted_pair(rng, tag, rng.randint(1, 3), rng.randint(0, 2),
                                         ("a", "b")[:rng.randint(1, 2)])
        basis, _ = pair_submodule(aut1, x1, aut2, x2)
        simplex_restriction(basis, family, aut1.n, aut2.n)
    assert checked_cone_rays
