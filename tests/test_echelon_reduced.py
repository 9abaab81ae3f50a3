"""`_Echelon.reduced` against the Gauss-Jordan oracle (`kernel_oracle._int_rref`).

Every reduced row echelon form of the package is one `_Echelon`, its rows
inserted one by one and read by one back-substitution.  The RREF is unique,
so on seeded integer matrices (0-8 columns, 0-10 rows, tall and wide, with
zero, repeated and dependent rows, entries up to 1, 10 and 10^6) the
pivots and each pivot row over its pivot entry must be the oracle's.
`kernel_oracle._rref_beside_identity` on [G | d I], the factorization that
sought its pivots in G's columns only, must give the oracle's pivots of G,
pivot rows [R | d E] with E G = R, and dim - rank equation rows that
annihilate every column of G and are independent.
"""

import random
from fractions import Fraction as F

import pytest

from kernel_oracle import _int_rref, _rref_beside_identity
from wazz.linalg import _Echelon, _reduced, primitive

BOUNDS = (1, 10, 10 ** 6)
CASES = 300


def random_matrix(rng, nrows, ncols, bound):
    """nrows integer rows of length ncols, entries in [-bound, bound]; some
    rows zero, some repeats or multiples of earlier ones, some combinations."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            row = [0] * ncols
        elif rows and kind < 0.25:
            row = [rng.choice((1, -1, 2, -3)) * a for a in rng.choice(rows)]
        elif len(rows) > 1 and kind < 0.45:
            a, b = rng.sample(rows, 2)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = [rng.randint(-bound, bound) for _ in range(ncols)]
        rows.append(row)
    return rows


def cases():
    """(index, columns, rows, d) of each seeded case."""
    rng = random.Random("echelon-reduced")
    for i in range(CASES):
        ncols, nrows, d = rng.randint(0, 8), rng.randint(0, 10), rng.choice((1, 2, 6))
        yield i, ncols, random_matrix(rng, nrows, ncols, BOUNDS[i % len(BOUNDS)]), d


def oracle_rref(rows, ncols):
    """(pivots, each pivot row over its pivot entry) by Gauss-Jordan."""
    rows = [list(r) for r in rows]
    pivots = _int_rref(rows, ncols)
    return pivots, [[F(a, row[p]) for a in row] for row, p in zip(rows, pivots)]


def test_the_cases_cover_the_shapes():
    shapes = [(len(rows), ncols) for _, ncols, rows, _ in cases()]
    assert len(shapes) == CASES
    assert any(r > c for r, c in shapes) and any(r < c for r, c in shapes)
    assert {c for _, c in shapes} == set(range(9)) and {r for r, _ in shapes} == set(range(11))


@pytest.mark.parametrize("part", range(3))
def test_reduced_is_the_oracle_rref(part):
    for i, ncols, rows, _ in cases():
        if i % 3 != part:
            continue
        span = _Echelon()
        for row in rows:
            span.add(row)
        pivots, got = span.reduced()
        want_pivots, want = oracle_rref(rows, ncols)
        assert list(pivots) == want_pivots, (rows, ncols)
        assert [[F(a, row[p]) for a in row] for row, p in zip(got, pivots)] == want
        for row, p in zip(got, pivots):
            assert row[p] > 0 and tuple(row) == primitive(row)
            assert all(type(a) is int for a in row)
        assert (pivots, got) == tuple(map(list, _reduced(rows)))


@pytest.mark.parametrize("part", range(3))
def test_rref_beside_identity_splits_pivots_and_equations(part):
    for i, k, g, d in cases():
        if i % 3 != part:
            continue
        dim = len(g)
        cols = [[g[r][j] for r in range(dim)] for j in range(k)]
        pivots, rows = _rref_beside_identity(cols, dim, d)
        want_pivots, want = oracle_rref(g, k)
        rank = len(want_pivots)
        assert list(pivots) == want_pivots, (g, k)
        assert len(rows) == dim
        for row, p, w in zip(rows, pivots, want):
            assert row[p] > 0
            assert [F(a, row[p]) for a in row[:k]] == w
            # E G = R, E being the identity part over d
            assert all(sum(e * g[r][j] for r, e in enumerate(row[k:])) == d * row[j]
                       for j in range(k))
        equations = [row[k:] for row in rows[rank:]]
        assert all(not any(row[:k]) for row in rows[rank:])
        assert all(sum(e * g[r][j] for r, e in enumerate(eq)) == 0
                   for eq in equations for j in range(k))
        assert len(_int_rref([list(eq) for eq in equations], dim)) == dim - rank
