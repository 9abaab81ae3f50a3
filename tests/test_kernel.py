"""Differential tests of the scaled-integer kernel: `Mat.apply` against the
entrywise oracle, and the verifier's per-node carrier tester against a fresh
`solve` for every vector."""

import random
from fractions import Fraction as F

import pytest

from wazz.automata import SemiringTag
from wazz.linalg import Mat, solve, unit, vector
from wazz.zigzag import (FREE_MODULE, GENERATED_MODULE, ZigZagNode, _carrier_tester,
                         _span_coordinates)

from matvec_oracle import entrywise_apply

T = SemiringTag


def same(got, want):
    """Equal values, and a tuple of Fraction as before."""
    return (got == want and type(got) is tuple
            and all(type(a) is F for a in got))


def rand_entry(rng, density, den_bound):
    if rng.random() >= density:
        return 0
    return F(rng.randint(-20, 20), rng.randint(1, den_bound))


def rand_vector(rng, n, den_bound):
    # a mix of int and Fraction entries, zeros included
    return tuple(rng.randint(-5, 5) if rng.random() < 0.3
                 else F(rng.randint(-20, 20), rng.randint(1, den_bound))
                 for _ in range(n))


class TestApplyMatchesOracle:
    @pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
    def test_random(self, density):
        rng = random.Random(f"kernel/{density}")
        for _ in range(300):
            nr, nc = rng.randint(0, 6), rng.randint(0, 6)
            m = Mat([[rand_entry(rng, density, 9) for _ in range(nc)] for _ in range(nr)],
                    ncols=nc)
            for _ in range(3):  # the cached row form serves every later call
                x = rand_vector(rng, nc, 9)
                assert same(m.apply(x), entrywise_apply(m, x))

    def test_zero_rows_and_zero_matrix(self):
        m = Mat([[0, 0, 0], [F(1, 2), 0, -3], [0, 0, 0]])
        x = (F(2, 3), 5, F(-7, 4))
        assert same(m.apply(x), entrywise_apply(m, x))
        z = Mat.zero(3, 4)
        assert same(z.apply((1, F(1, 2), -3, 0)), (F(0),) * 3)

    @pytest.mark.parametrize("nrows, ncols", [(0, 3), (3, 0), (0, 0)])
    def test_empty_shapes(self, nrows, ncols):
        m = Mat.zero(nrows, ncols)
        x = tuple(F(i + 1, 7) for i in range(ncols))
        assert same(m.apply(x), entrywise_apply(m, x))
        assert m.apply(x) == (F(0),) * nrows

    def test_large_coprime_denominators(self):
        primes = [1000003, 998244353, 2147483647, 1000000007]
        m = Mat([[F(-p, q) for q in primes] for p in (3, 5, 7)])
        for x in [tuple(F(1, p) for p in reversed(primes)),
                  (F(-2, 1000003), 7, F(11, 2147483647), -1)]:
            assert same(m.apply(x), entrywise_apply(m, x))

    def test_int_and_fraction_vectors_agree(self):
        m = Mat([[F(1, 3), -2, 0], [0, F(-5, 6), F(7, 4)]])
        ints = (3, -4, 12)
        assert same(m.apply(ints), entrywise_apply(m, ints))
        assert m.apply(ints) == m.apply(tuple(F(a) for a in ints))

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            Mat.identity(2).apply((1, 2, 3))

    def test_matmul_matches_oracle(self):
        rng = random.Random("kernel/matmul")
        for _ in range(50):
            a, b, c = (rng.randint(0, 4) for _ in range(3))
            left = Mat([[rand_entry(rng, 0.5, 5) for _ in range(b)] for _ in range(a)], ncols=b)
            right = Mat([[rand_entry(rng, 0.5, 5) for _ in range(c)] for _ in range(b)], ncols=c)
            want = Mat.from_cols([entrywise_apply(left, col) for col in right.cols()],
                                 nrows=a)
            assert left @ right == want


class TestMatEntries:
    """`Mat` keeps entries that already are `Fraction` and converts the rest;
    the matrix is the same whichever form its entries come in."""

    def test_int_str_and_fraction_entries_agree(self):
        rng = random.Random("kernel/entries")
        for _ in range(50):
            nrows, ncols = rng.randint(0, 4), rng.randint(1, 4)
            fracs = [[rand_entry(rng, 0.6, 6) for _ in range(ncols)] for _ in range(nrows)]
            forms = [
                Mat([[F(a) for a in r] for r in fracs], ncols=ncols),
                Mat([[str(a) for a in r] for r in fracs], ncols=ncols),
                # integral entries as int, the rest as Fraction
                Mat([[int(a) if a.denominator == 1 else a for a in r] for r in fracs],
                    ncols=ncols),
            ]
            x = rand_vector(rng, ncols, 5)
            for m in forms:
                assert all(type(a) is F for r in m.rows for a in r)
                assert m == forms[0] and hash(m) == hash(forms[0])
                assert same(m.apply(x), entrywise_apply(forms[0], x))

    def test_fraction_entries_are_kept_and_subclasses_converted(self):
        class Sub(F):
            pass

        half = F(1, 2)
        m = Mat([[half, Sub(1, 3), 2]])
        assert m.rows[0][0] is half
        assert [type(a) for a in m.rows[0]] == [F, F, F]
        assert m == Mat([["1/2", "1/3", "2"]])
        assert m.transpose().rows[0][0] is half


def solve_coordinates(gens, dim, v):
    """What the verifier did per vector before: a fresh `solve` and the
    entrywise back-check."""
    mat = Mat.from_cols(gens, nrows=dim)
    coords = solve(mat, v)
    if coords is None or entrywise_apply(mat, coords) != tuple(v):
        return None
    return coords


def rand_generators(rng, dim):
    """Up to dim + 2 generators, often rank-deficient: some are combinations
    of the others, repeated, or zero."""
    gens = []
    for _ in range(rng.randint(0, dim + 2)):
        roll = rng.random()
        if gens and roll < 0.3:
            a, b = rng.choice(gens), rng.choice(gens)
            gens.append(tuple(F(rng.randint(-2, 2)) * p + q for p, q in zip(a, b)))
        elif roll < 0.4:
            gens.append((F(0),) * dim)
        else:
            gens.append(tuple(rand_entry(rng, 0.6, 4) for _ in range(dim)))
    return [vector(g) for g in gens]


def rand_targets(rng, gens, dim):
    """Vectors in the span (combinations of the generators) and random ones."""
    targets = [tuple(rand_entry(rng, 0.6, 4) for _ in range(dim)) for _ in range(3)]
    for _ in range(3):
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in gens]
        targets.append(tuple(sum((c * g[i] for c, g in zip(coeffs, gens)), F(0))
                             for i in range(dim)))
    return targets


class TestCarrierTesterMatchesSolve:
    def test_span_coordinates(self):
        rng = random.Random("carrier/coords")
        verdicts = set()
        for _ in range(300):
            dim = rng.randint(0, 4)
            gens = rand_generators(rng, dim)
            coordinates = _span_coordinates(gens, dim)
            for v in rand_targets(rng, gens, dim):
                got = coordinates(v)
                assert got == solve_coordinates(gens, dim, v)
                verdicts.add(got is not None)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("kind, tag", [(FREE_MODULE, T.NAT), (FREE_MODULE, T.INT),
                                           (FREE_MODULE, T.QPLUS), (FREE_MODULE, T.Q),
                                           (GENERATED_MODULE, T.Q),
                                           (GENERATED_MODULE, T.REAL)])
    def test_member_verdicts(self, kind, tag):
        rng = random.Random(f"carrier/{kind}/{tag.value}")
        verdicts = set()
        for _ in range(150):
            dim = rng.randint(1, 4)
            if kind == FREE_MODULE and rng.random() < 0.5:
                gens = [unit(dim, i) for i in range(dim)]
            else:
                gens = rand_generators(rng, dim)
            node = ZigZagNode(kind=kind, dim=dim, generators=tuple(gens),
                              out=(F(0),) * dim, trans=(Mat.identity(dim),))
            member = _carrier_tester(tag, node)
            targets = rand_targets(rng, gens, dim)
            targets.append(tuple(F(rng.randint(-3, 3)) for _ in range(dim)))
            for v in targets:
                coords = solve_coordinates(gens, dim, v)
                want = coords is not None and (kind == GENERATED_MODULE
                                               or all(tag.scalar_ok(c) for c in coords))
                assert member(v) == want
                verdicts.add(want)
        assert verdicts == {True, False}
