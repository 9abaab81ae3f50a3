"""Differential tests of the integer kernel: `Mat.apply_scaled` against the
entrywise oracle, the verifier's per-node carrier record against a fresh
solve on the `Fraction` rref for every vector and, on free subconvex
carriers, against the ambient facet gauge, and the fraction-free `rref`, `_Echelon`,
`primitive`, DD initial simplex, gauge, cone membership and Z closure
against their `Fraction` versions in `kernel_oracle`."""

import random
from fractions import Fraction as F

import pytest

import kernel_oracle
from wazz import polyhedra, zigzag
from wazz.automata import LinearCoalgebra, SemiringTag
from wazz.linalg import (Mat, _Echelon, _lowest_terms, closure_under_maps, kernel_basis, primitive,
                         rref, scaled)
from wazz.polyhedra import INFINITY, PcaPolytope, cone_member, gauge, span_factors
from wazz.zigzag import FREE_MODULE, FREE_PCA, GENERATED_MODULE, ZigZagNode, _carrier, ghat_zigzag

from genrandom import lifted_pair
from ghat_oracle import pca_member
from kernel_oracle import echelon_contains
from matvec_oracle import (columns, entrywise_apply, fraction_rows, fractions, from_cols, funit,
                           identity, matmul, svec, transpose, vector, zero)
from weights_oracle import scalar_ok

T = SemiringTag


def same(got, want):
    """Equal values, and a tuple of Fraction as before."""
    return (got == want and type(got) is tuple
            and all(type(a) is F for a in got))


def applied(m, x):
    """M x by `Mat.apply_scaled` on the scaled x, read back as `Fraction`s."""
    return fractions(_lowest_terms(m.apply_scaled(scaled(x))))


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
                assert same(applied(m, x), entrywise_apply(m, x))

    def test_zero_rows_and_zero_matrix(self):
        m = Mat([[0, 0, 0], [F(1, 2), 0, -3], [0, 0, 0]])
        x = (F(2, 3), 5, F(-7, 4))
        assert same(applied(m, x), entrywise_apply(m, x))
        z = zero(3, 4)
        assert same(applied(z, (1, F(1, 2), -3, 0)), (F(0),) * 3)

    @pytest.mark.parametrize("nrows, ncols", [(0, 3), (3, 0), (0, 0)])
    def test_empty_shapes(self, nrows, ncols):
        m = zero(nrows, ncols)
        x = tuple(F(i + 1, 7) for i in range(ncols))
        assert same(applied(m, x), entrywise_apply(m, x))
        assert applied(m, x) == (F(0),) * nrows

    def test_large_coprime_denominators(self):
        primes = [1000003, 998244353, 2147483647, 1000000007]
        by_column = Mat([[F(-p, q) for q in primes] for p in (3, 5, 7)])
        by_row = Mat([[F(p, q) for p in (3, -5, 7, 0)] for q in primes])
        for m in (by_column, by_row):
            for x in [tuple(F(1, p) for p in reversed(primes)),
                      (F(-2, 1000003), 7, F(11, 2147483647), -1)]:
                assert same(applied(m, x), entrywise_apply(m, x))

    def test_int_and_fraction_vectors_agree(self):
        m = Mat([[F(1, 3), -2, 0], [0, F(-5, 6), F(7, 4)]])
        ints = (3, -4, 12)
        assert same(applied(m, ints), entrywise_apply(m, ints))
        assert applied(m, ints) == applied(m, tuple(F(a) for a in ints))

    def test_dimension_check(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            applied(identity(2), (1, 2, 3))

    def test_matmul_matches_oracle(self):
        rng = random.Random("kernel/matmul")
        for _ in range(50):
            a, b, c = (rng.randint(0, 4) for _ in range(3))
            left = Mat([[rand_entry(rng, 0.5, 5) for _ in range(b)] for _ in range(a)], ncols=b)
            right = Mat([[rand_entry(rng, 0.5, 5) for _ in range(c)] for _ in range(b)], ncols=c)
            want = from_cols([entrywise_apply(left, col) for col in columns(right)],
                                 nrows=a)
            assert matmul(left, right) == want


class TestMatEntries:
    """`Mat` reads int and `Fraction` entries into its integers, through
    `as_integer_ratio`, so a literal is no entry; the matrix is the same
    whichever form its entries come in, and `fraction_rows` reads it back
    as `Fraction`s."""

    def test_int_and_fraction_entries_agree(self):
        rng = random.Random("kernel/entries")
        for _ in range(50):
            nrows, ncols = rng.randint(0, 4), rng.randint(1, 4)
            fracs = [[rand_entry(rng, 0.6, 6) for _ in range(ncols)] for _ in range(nrows)]
            forms = [
                Mat([[F(a) for a in r] for r in fracs], ncols=ncols),
                # integral entries as int, the rest as Fraction
                Mat([[int(a) if a.denominator == 1 else a for a in r] for r in fracs],
                    ncols=ncols),
            ]
            x = rand_vector(rng, ncols, 5)
            for m in forms:
                assert all(type(a) is F for r in fraction_rows(m) for a in r)
                assert m == forms[0] and hash(m) == hash(forms[0])
                assert same(applied(m, x), entrywise_apply(forms[0], x))

    def test_fraction_entries_are_kept_and_subclasses_converted(self):
        class Sub(F):
            pass

        half = F(1, 2)
        m = Mat([[half, Sub(1, 3), 2]])
        assert fraction_rows(m)[0][0] == half
        assert [type(a) for a in fraction_rows(m)[0]] == [F, F, F]
        assert m == Mat([[F("1/2"), F("1/3"), F("2")]])
        with pytest.raises(AttributeError):  # a literal has no `as_integer_ratio`
            Mat([["1/2"]])
        assert fraction_rows(transpose(m))[0][0] == half

    def test_vector_int_str_and_fraction_entries_agree(self):
        rng = random.Random("kernel/vector-entries")
        for _ in range(50):
            fracs = [rand_entry(rng, 0.6, 6) for _ in range(rng.randint(0, 5))]
            want = vector(fracs)
            assert same(want, tuple(fracs))
            assert same(vector(str(a) for a in fracs), want)
            assert same(vector(int(a) if a.denominator == 1 else a for a in fracs), want)

    def test_vector_keeps_fraction_entries_and_converts_subclasses(self):
        class Sub(F):
            pass

        half = F(1, 2)
        v = vector([half, Sub(1, 3), 2, "3/4"])
        assert v[0] is half
        assert [type(a) for a in v] == [F, F, F, F]
        assert v == (F(1, 2), F(1, 3), F(2), F(3, 4))


def solve_coordinates(gens, dim, v):
    """What the verifier did per vector before: a fresh `solve`, free
    variables zero, and the entrywise back-check.  The solve runs on the
    `Fraction` rref, because the verifier's factorization and `rref` share
    one elimination."""
    mat = from_cols(gens, nrows=dim)
    k = len(gens)
    aug = Mat(tuple(r + (b,) for r, b in zip(fraction_rows(mat), v)), ncols=k + 1)
    red, pivots, _ = kernel_oracle.rref(aug)
    if pivots and pivots[-1] == k:
        return None
    coords = [F(0)] * k
    for i, p in enumerate(pivots):
        coords[p] = fraction_rows(red)[i][k]
    coords = tuple(coords)
    return coords if entrywise_apply(mat, coords) == tuple(v) else None


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
            span = span_factors(tuple(map(scaled, gens)), dim)
            assert span.rank == (kernel_oracle.rref(Mat(gens, ncols=dim))[2] if gens else 0)
            for v in rand_targets(rng, gens, dim):
                got = span.coordinates(scaled(v))
                if got is not None:  # scaled too: x = ints / d
                    got = tuple(F(a, got[0]) for a in got[1])
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
                gens = [funit(dim, i) for i in range(dim)]
            else:
                gens = rand_generators(rng, dim)
            coalg = LinearCoalgebra(n=dim, alphabet=("a",), out=svec([0] * dim),
                                    trans=(identity(dim),))
            node = ZigZagNode(kind=kind, generators=tuple(map(scaled, gens)), coalgebra=coalg)
            member = _carrier(tag, node).member
            targets = rand_targets(rng, gens, dim)
            targets.append(tuple(F(rng.randint(-3, 3)) for _ in range(dim)))
            for v in targets:
                coords = solve_coordinates(gens, dim, v)
                want = coords is not None and (kind == GENERATED_MODULE
                                               or all(scalar_ok(tag, c) for c in coords))
                assert member(scaled(v)) == want
                verdicts.add(want)
        assert verdicts == {True, False}

    def test_free_tag_rule_on_integers(self, monkeypatch):
        """A free carrier tests the tag's scalar rules on its scaled integer
        coordinates: no `Fraction` is built."""
        rng = random.Random("carrier/free-tag-rule")
        cases = []
        for tag in T:
            for _ in range(40):
                dim = rng.randint(1, 3)
                gens = ([funit(dim, i) for i in range(dim)] if rng.random() < 0.5
                        else rand_generators(rng, dim))
                node = ZigZagNode(kind=FREE_MODULE, generators=tuple(map(scaled, gens)),
                                  coalgebra=LinearCoalgebra(n=dim, alphabet=("a",),
                                                            out=svec([0] * dim),
                                                            trans=(identity(dim),)))
                targets = rand_targets(rng, gens, dim)
                targets.append(tuple(F(rng.randint(-1, 2), rng.randint(1, 2))
                                     for _ in range(dim)))
                for v in targets:
                    coords = solve_coordinates(gens, dim, v)
                    want = coords is not None and all(scalar_ok(tag, c) for c in coords)
                    cases.append((tag, node, scaled(v), want))

        built, new = [], F.__new__
        monkeypatch.setattr(F, "__new__", lambda cls, *args, **kw: built.append(args)
                            or new(cls, *args, **kw))
        for tag, node, v, want in cases:
            assert _carrier(tag, node).member(v) == want
        monkeypatch.undo()
        assert built == []
        assert {want for *_, want in cases} == {True, False}

    def test_free_subconvex_gauge_matches_facets(self, monkeypatch):
        """A well-formed FREE_PCA carrier is gauged by its coordinates, with no
        polytope built; on pyramids, simplices and other invertible
        nonnegative carriers that is the gauge of the hull's ambient facets
        (`kernel_oracle`)."""
        rng = random.Random("carrier/free-pca")
        monkeypatch.setattr(zigzag, "PcaPolytope", None)
        kinds, points = set(), 0
        for _ in range(400):
            dim = rng.randint(1, 4)
            roll = rng.random()
            if roll < 0.3:  # a pyramid's generators e_j / u_j
                gens = [tuple(F(rng.randint(1, 5), rng.randint(1, 5)) if i == j else F(0)
                              for i in range(dim)) for j in range(dim)]
            elif roll < 0.5:  # the standard simplex, in some order
                gens = [funit(dim, j) for j in rng.sample(range(dim), dim)]
            else:
                gens = []
                while len(gens) < dim:
                    g = tuple(abs(rand_scalar(rng)) for _ in range(dim))
                    if rref(Mat(gens + [g], ncols=dim))[2] > len(gens):
                        gens.append(g)
            node = ZigZagNode(kind=FREE_PCA, generators=tuple(map(scaled, gens)),
                              coalgebra=LinearCoalgebra(n=dim, alphabet=("a",),
                                                        out=svec([0] * dim),
                                                        trans=(identity(dim),)))
            carrier = _carrier(T.PCA, node)
            assert carrier.kind_detail == ""
            polytope = PcaPolytope(dim, node.generators)
            for x in gauge_points(rng, polytope):
                want = kernel_oracle.gauge(polytope, scaled(x))
                got = carrier.gauge(scaled(x))  # an integer ratio (p, q), or INFINITY
                got = got if got is INFINITY else F(*got)
                assert same_gauge(got, want), (gens, x)
                assert carrier.member(scaled(x)) == pca_member(polytope, x)
                kinds.add("inf" if want is INFINITY else (want > 1) - (want < 1))
                points += 1
        assert kinds == {"inf", -1, 0, 1}
        assert points >= 4000


# ---------------------------------------------------------------------------
# fraction-free elimination, scaling and facet evaluation


def rand_scalar(rng):
    """0, a small int, a small fraction, or one with a denominator up to 10**6."""
    roll = rng.random()
    if roll < 0.3:
        return 0
    if roll < 0.5:
        return rng.randint(-9, 9)
    if roll < 0.8:
        return F(rng.randint(-9, 9), rng.randint(1, 9))
    return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def rand_rows(rng, nr, nc):
    """nr rows of nc entries, int and Fraction, with zero rows and columns and
    rows that are combinations of earlier ones."""
    zero_cols = set(rng.sample(range(nc), rng.randint(0, nc // 2))) if nc else set()
    rows = []
    for _ in range(nr):
        roll = rng.random()
        if roll < 0.15:
            row = [0] * nc
        elif rows and roll < 0.4:
            a, b = rng.choice(rows), rng.choice(rows)
            c, d = rand_scalar(rng), F(rng.randint(-3, 3), rng.randint(1, 4))
            row = [c * x + d * y for x, y in zip(a, b)]
        else:
            row = [0 if j in zero_cols else rand_scalar(rng) for j in range(nc)]
        rows.append(row)
    return rows


def all_fractions(m):
    return all(type(a) is F for r in fraction_rows(m) for a in r)


class TestRrefMatchesOracle:
    @pytest.mark.parametrize("nr", range(8))
    def test_random_shapes(self, nr):
        rng = random.Random(f"kernel/rref/{nr}")
        for nc in range(9):
            for _ in range(12):
                m = Mat(rand_rows(rng, nr, nc), ncols=nc)
                got, want = rref(m), kernel_oracle.rref(m)
                assert got == want, m
                assert all_fractions(got[0])

    def test_rank_and_pivots_of_known_matrix(self):
        m = Mat([[0, 0, 0, 0], [0, 2, 4, F(1, 3)], [0, 1, 2, 5], [0, 0, 0, 0]])
        red, pivots, rank = rref(m)
        assert (pivots, rank) == ((1, 3), 2)
        assert fraction_rows(red)[0] == (0, 1, 2, 0) and fraction_rows(red)[1] == (0, 0, 0, 1)
        assert red == kernel_oracle.rref(m)[0] and all_fractions(red)


class TestKernelBasisMatchesOracle:
    @pytest.mark.parametrize("nr", range(8))
    def test_random_shapes(self, nr):
        rng = random.Random(f"kernel/kernel-basis/{nr}")
        for nc in range(9):
            for _ in range(12):
                m = Mat(rand_rows(rng, nr, nc), ncols=nc)
                got = kernel_basis(m)
                assert got == kernel_oracle.kernel_basis(m), m
                assert all(type(a) is int for v in got for a in v)


class TestEchelonMatchesOracle:
    @pytest.mark.parametrize("dim", range(9))
    def test_add_and_contains_sequences(self, dim):
        rng = random.Random(f"kernel/echelon/{dim}")
        for _ in range(25):
            ech, oracle = _Echelon(), kernel_oracle.Echelon()
            seen = []
            for _ in range(rng.randint(0, 2 * dim + 3)):
                if seen and rng.random() < 0.4:  # a combination: in the span
                    c = [rand_scalar(rng) for _ in seen]
                    v = tuple(sum((x * s[i] for x, s in zip(c, seen)), F(0))
                              for i in range(dim))
                else:
                    v = tuple(rand_scalar(rng) for _ in range(dim))
                ints = scaled(v)[1]
                assert echelon_contains(ech, ints) == oracle.contains(v)
                assert ech.add(ints) == oracle.add(v)
                seen.append(v)
            assert len(ech.rows) == len(oracle.rows)
            for (p, row), (q, _) in zip(ech.rows, oracle.rows):
                assert p == q and row[p] > 0 and all(type(a) is int for a in row)


class TestPrimitiveMatchesOracle:
    def test_random_vectors(self):
        rng = random.Random("kernel/primitive")
        for _ in range(2000):
            v = tuple(rand_scalar(rng) for _ in range(rng.randint(0, 8)))
            for flip in (False, True):
                got = primitive(v, flip_sign=flip)
                assert got == kernel_oracle.primitive(v, flip_sign=flip)
                assert all(type(a) is int for a in got)

    def test_zero_vectors(self):
        for v in ((), (0,), (F(0), 0, F(0))):
            for flip in (False, True):
                assert primitive(v, flip_sign=flip) == (0,) * len(v)


class TestInitialSimplexMatchesOracle:
    def test_random_normals(self):
        rng = random.Random("kernel/simplex")
        done = 0
        while done < 300:
            dim = rng.randint(1, 6)
            normals = [primitive(r) for r in rand_rows(rng, rng.randint(1, dim + 4), dim)]
            try:
                want = kernel_oracle.initial_simplex_rays(normals, dim)
            except ValueError:
                with pytest.raises(ValueError, match="full rank"):
                    polyhedra._initial_simplex(normals, dim)
                continue
            assert polyhedra._initial_simplex(normals, dim) == want
            done += 1


def rand_polytope(rng):
    dim = rng.randint(1, 4)
    gens = [tuple(abs(rand_scalar(rng)) for _ in range(dim))
            for _ in range(rng.randint(0, dim + 2))]
    return PcaPolytope(dim, tuple(map(scaled, gens)))


def gauge_points(rng, polytope):
    """The generators and their combinations, scaled, plus random points of
    either sign, so that the results cover 0, values on both sides of 1 and
    INFINITY."""
    dim, gens = polytope.dim, [fractions(g) for g in polytope.generators]
    points = [(0,) * dim, *gens]
    for _ in range(4):
        c = [abs(rand_scalar(rng)) for _ in gens]
        points.append(tuple(sum((x * g[i] for x, g in zip(c, gens)), F(0))
                            for i in range(dim)))
    points += [tuple(rand_scalar(rng) for _ in range(dim)) for _ in range(3)]
    points += [tuple(abs(rand_scalar(rng)) for _ in range(dim)) for _ in range(3)]
    return points


def same_gauge(got, want):
    if want is INFINITY:
        return got is INFINITY
    return got == want and type(got) is F


class TestGaugeMatchesOracle:
    def test_random_polytopes(self):
        rng = random.Random("kernel/gauge")
        kinds = set()
        for _ in range(150):
            p = rand_polytope(rng)
            for x in map(scaled, gauge_points(rng, p)):
                want = kernel_oracle.gauge(p, x)
                assert same_gauge(gauge(p, x), want), (p, x)
                kinds.add("inf" if want is INFINITY else (want > 1) - (want < 1))
        assert kinds == {"inf", -1, 0, 1}

    def test_hulls_built_by_ghat_zigzag(self, monkeypatch):
        hulls = []
        original = zigzag.pyramid_extension

        def spy(polytope, coalg):
            hulls.append(polytope)
            return original(polytope, coalg)

        monkeypatch.setattr(zigzag, "pyramid_extension", spy)
        rng = random.Random("kernel/gauge/ghat")
        for k, extra in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)) * 2:
            aut1, x1, aut2, x2 = lifted_pair(rng, T.PCA, k, extra,
                                             ("a", "b")[: rng.randint(1, 2)])
            z = ghat_zigzag(aut1, x1, aut2, x2)
            hulls += [PcaPolytope(n.dim, n.generators) for n in z.nodes if n.is_pca]
        assert len(hulls) >= 12 * 5
        for p in hulls:
            for x in map(scaled, gauge_points(rng, p)):
                assert same_gauge(gauge(p, x), kernel_oracle.gauge(p, x)), (p, x)

    def test_hash_and_equality_follow_the_fields(self):
        p = PcaPolytope(2, (scaled((1, F(1, 2))), scaled((0, 3))))
        q = PcaPolytope(2, (svec([F(1), F(1, 2)]), svec(["0", "6/2"])))
        assert p == q and hash(p) == hash(q) == hash((2, q.generators))
        assert p != PcaPolytope(2, (scaled((0, 3)), scaled((1, F(1, 2)))))


class TestConeMemberMatchesOracle:
    def test_random_cones(self):
        rng = random.Random("kernel/cone")
        verdicts = set()
        for _ in range(200):
            dim = rng.randint(1, 4)
            gens = [tuple(rand_scalar(rng) for _ in range(dim))
                    for _ in range(rng.randint(0, dim + 2))]
            if rng.random() < 0.5:  # the nonnegative cones the verifier sees
                gens = [tuple(abs(a) for a in g) for g in gens]
            points = [tuple(rand_scalar(rng) for _ in range(dim)) for _ in range(4)]
            for _ in range(4):
                c = [abs(rand_scalar(rng)) for _ in gens]
                points.append(tuple(sum((x * g[i] for x, g in zip(c, gens)), F(0))
                                    for i in range(dim)))
            gens = [scaled(g) for g in gens]
            for x in map(scaled, points):
                want = kernel_oracle.cone_member(gens, x)
                assert cone_member(gens, x) is want
                verdicts.add(want)
        assert verdicts == {True, False}


class TestZClosureMatchesOracle:
    def test_random_maps(self):
        rng = random.Random("kernel/zclosure")
        ranks = set()
        for _ in range(150):
            dim = rng.randint(1, 5)
            maps = [Mat([[rng.choice((0, 0, 1, -1, 2, 3, -4)) for _ in range(dim)]
                         for _ in range(dim)]) for _ in range(rng.randint(1, 3))]
            start = tuple(rng.randint(-3, 3) for _ in range(dim))
            got = closure_under_maps(scaled(start), maps)
            assert got == kernel_oracle.z_closure(start, maps)
            ranks.add(len(got))
        assert len(ranks) >= 4
