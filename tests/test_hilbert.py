import random
from fractions import Fraction as F

import pytest

from wazz.linalg import Lattice, Mat, hnf, lattice_member
from wazz.hilbert import hilbert_basis, nat_restriction, qplus_restriction_by_scaling

from hilbert_oracle import hilbert_basis_by_coords, hilbert_bruteforce_oracle, in_cone, spec_of
from matvec_oracle import vector


def monoid_member(gens, v, spec):
    """Complete decision of v in N-span(gens) for hilbert_basis outputs.

    Lines (generators whose negation is also in the cone) always come in
    +/- pairs, so their N-span is the lattice they generate; the other
    generators have nonzero image under W, and image sums are strictly
    increasing, which bounds the search.
    """
    lines = [g for g in gens if in_cone(spec, tuple(-a for a in g))]
    lifts = sorted((g for g in gens if g not in set(lines)),
                   key=lambda g: -sum(spec.image(g)))
    line_lat = hnf(lines, dim=spec.k) if lines else Lattice(spec.k, ())
    images = [spec.image(g) for g in lifts]
    memo = {}

    def rec(idx, img_left, residual):
        if not any(img_left):
            return not any(residual) or (
                bool(line_lat.basis) and lattice_member(residual, line_lat))
        if idx == len(lifts):
            return False
        key = (idx, img_left, residual)
        if key in memo:
            return memo[key]
        gimg = images[idx]
        bound = min((img_left[t] // gimg[t] for t in range(len(gimg)) if gimg[t] > 0),
                    default=0)
        result = False
        for count in range(bound, -1, -1):
            if rec(idx + 1,
                   tuple(a - count * b for a, b in zip(img_left, gimg)),
                   tuple(a - count * b for a, b in zip(residual, lifts[idx]))):
                result = True
                break
        memo[key] = result
        return result

    return rec(0, spec.image(v), v)


class TestFixedExamples:
    def test_orthant(self):
        assert hilbert_basis(Mat([(1, 0), (0, 1)])) == [(0, 1), (1, 0)]

    def test_staircase(self):
        # x1 - x2 >= 0, x2 >= 0; oracle-confirmed below
        s = spec_of([(1, 0), (-1, 1)])
        assert hilbert_basis(s.w) == [(1, 0), (1, 1)]

    def test_halfplane_has_line(self):
        s = spec_of([(1,), (0,)])
        basis = hilbert_basis(s.w)
        assert (0, 1) in basis and (0, -1) in basis
        assert basis == [(0, -1), (0, 1), (1, 0)]

    def test_even_sum_restriction(self):
        lat = hnf([(1, 1), (0, 2)])
        assert nat_restriction(lat) == [(0, 2), (1, 1), (2, 0)]

    def test_full_lattice_restriction(self):
        assert nat_restriction(hnf([(1, 0), (0, 1)])) == [(0, 1), (1, 0)]

    def test_negative_diagonal_restriction(self):
        assert nat_restriction(hnf([(1, -1)])) == []


class TestOracle:
    def test_matches_fixed_examples(self):
        for rows in ([(1, 0), (0, 1)], [(1, 0), (-1, 1)], [(1,), (0,)]):
            s = spec_of(rows)
            assert hilbert_bruteforce_oracle(s, 3) == hilbert_basis(s.w)

    def test_trivial_cone(self):
        # x >= 0 and -x >= 0 in Z^1 forces x = 0
        assert hilbert_bruteforce_oracle(spec_of([(1, -1)]), 3) == []

    def test_tiny_box(self):
        assert hilbert_bruteforce_oracle(spec_of([(1,)]), 1) == [(1,)]


class TestRandomCones:
    def test_oracle_agreement_and_generation(self):
        rng = random.Random(101)
        done = 0
        while done < 25:
            k = rng.randint(2, 3)
            m = rng.randint(1, 3)
            rows = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(k)]
            s = spec_of(rows)
            basis = hilbert_basis(s.w)
            if not basis:
                continue
            done += 1
            box = 3
            if all(all(abs(a) <= box for a in g) for g in basis):
                assert hilbert_bruteforce_oracle(s, box) == basis
            # generation: random small N-combinations land back in the monoid
            for _ in range(25):
                coeffs = [rng.randint(0, 3) for _ in basis]
                v = tuple(sum(c * g[t] for c, g in zip(coeffs, basis))
                          for t in range(s.k))
                assert in_cone(s, v)
                assert monoid_member(basis, v, s)
            # membership-filtered box samples are expressible too
            hits = 0
            for _ in range(200):
                v = tuple(rng.randint(-box, box) for _ in range(s.k))
                if any(v) and in_cone(s, v):
                    assert monoid_member(basis, v, s)
                    hits += 1
                if hits >= 25:
                    break

    def test_minimality_on_pointed_cones(self):
        rng = random.Random(103)
        done = 0
        while done < 15:
            k = rng.randint(2, 3)
            rows = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(k)]
            s = spec_of(rows)
            basis = hilbert_basis(s.w)
            has_line = any(in_cone(s, tuple(-a for a in g)) for g in basis)
            if not basis or has_line:
                continue
            done += 1
            for i, g in enumerate(basis):
                others = basis[:i] + basis[i + 1:]
                assert not monoid_member(others, g, s)

    def test_minimality_of_line_example(self):
        # the +/- pair assumption of monoid_member does not hold for proper
        # subsets of this basis, so check small combinations directly:
        # coefficients above 4 only move coordinates further from the target
        basis = hilbert_basis(Mat([(1,), (0,)]))
        assert basis == [(0, -1), (0, 1), (1, 0)]
        for i, g in enumerate(basis):
            others = basis[:i] + basis[i + 1:]
            for a in range(5):
                for b in range(5):
                    combo = tuple(a * x + b * y for x, y in zip(*others))
                    assert combo != g


class TestQPlusScaling:
    def test_full_plane(self):
        gens = qplus_restriction_by_scaling([(1, 0), (0, 1)])
        assert sorted(gens) == [(0, 1), (1, 0)]

    def test_diagonal(self):
        assert qplus_restriction_by_scaling([vector(["1/2", "1/2"])]) == [(1, 1)]

    def test_antidiagonal_empty(self):
        assert qplus_restriction_by_scaling([(1, -1)]) == []


class TestDegenerateCones:
    def test_zero_constraints_give_unit_lines(self):
        s = spec_of([(0,), (0,)])
        expected = [(-1, 0), (0, -1), (0, 1), (1, 0)]
        assert hilbert_basis(s.w) == expected
        assert hilbert_bruteforce_oracle(s, 2) == expected


def seeded_cone_rows(rng):
    """The rows of a random small cone matrix W, with zero rows, repeated
    rows and rows that combine earlier ones mixed in."""
    k, m = rng.randint(1, 4), rng.randint(1, 3)
    rows = []
    for _ in range(k):
        kind = rng.random()
        if kind < 0.15:
            rows.append((0,) * m)
        elif kind < 0.3 and rows:
            rows.append(rng.choice(rows))
        elif kind < 0.45 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
        else:
            rows.append(tuple(rng.randint(-3, 3) for _ in range(m)))
    return rows


class TestOldRoute:
    def test_matches_coordinate_lift_oracle(self):
        """One reduction against the HNF rows of [W | I] lifts every minimal
        image element to the preimage the old three-step route (coordinates,
        transform, kernel reduction after a second `hnf`) gave."""
        rng = random.Random("hilbert/old-route")
        kinds = set()
        for _ in range(300):
            rows = seeded_cone_rows(rng)
            s = spec_of(rows)
            assert hilbert_basis(s.w) == hilbert_basis_by_coords(s), rows
            kinds |= {"zero" for r in rows if not any(r)}
            kinds |= {"repeated" for i, r in enumerate(rows) if r in rows[:i] and any(r)}
            distinct = {r for r in rows if any(r)}
            if distinct and hnf(list(distinct)).rank < len(distinct):
                kinds.add("dependent")
        assert kinds == {"zero", "repeated", "dependent"}

    def test_rejects_a_fraction(self):
        with pytest.raises(ValueError, match="W must be an integer matrix"):
            hilbert_basis(Mat([[F(1, 2)]]))
