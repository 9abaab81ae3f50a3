"""The verifier's gauges and cone tests in the span's own coordinates against
the ambient ones of `kernel_oracle` (facets from `dd_v_to_h`, normals from
`cone_rays`, lineality split off through the kernel), and the budget of its
facet enumeration.

A gauge is a function of the set and x -> x_P is one-to-one on the span, so
every value must be the ambient one, of the same type, on low-rank and
dependent generators and on points just off the span.  Whole verifier
reports are compared with the oracle verifier, whose gauges and cone tests
are the ambient ones, in `test_integer_verifier.py`."""

import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

import kernel_oracle
from wazz import polyhedra
from wazz.automata import SemiringTag
from wazz.cli import main
from wazz.linalg import Mat, scaled
from wazz.polyhedra import (INFINITY, PcaPolytope, SearchBudgetExceeded, cone_member,
                            gauge)
from wazz.zigzag import (five_node_zigzag, parse_zigzag, span_zigzag, verify_zigzag,
                         zigzag_to_text)

from genrandom import lifted_pair

T = SemiringTag
NUDGE = F(1, 10**9)


def same_gauge(got, want):
    if want is INFINITY:
        return got is INFINITY
    return got == want and type(got) is F


def rand_entry(rng, signed):
    a = F(rng.randint(-6 if signed else 0, 6), rng.randint(1, 4))
    return a if rng.random() < 0.7 else F(0)


def low_rank_gens(rng, dim, signed):
    """Generators of rank at most dim: combinations of a few base vectors,
    with zero and repeated generators among them."""
    base = [tuple(rand_entry(rng, signed) for _ in range(dim))
            for _ in range(rng.randint(0, min(dim, 3)))]
    gens = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if roll < 0.1 or not base:
            gens.append((F(0),) * dim)
        elif roll < 0.25 and gens:
            gens.append(rng.choice(gens))
        else:
            c = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in base]
            gens.append(tuple(sum((x * b[i] for x, b in zip(c, base)), F(0))
                              for i in range(dim)))
    return gens


def probe_points(rng, gens, dim):
    """0, the generators, nonnegative and signed combinations of them, each
    also moved off the span by NUDGE in one entry, and random points."""
    points = [(F(0),) * dim, *gens]
    for _ in range(4):
        c = [F(rng.randint(-1 if rng.random() < 0.3 else 0, 4), rng.randint(1, 3))
             for _ in gens]
        points.append(tuple(sum((x * g[i] for x, g in zip(c, gens)), F(0))
                            for i in range(dim)))
    if dim:
        for x in list(points[1:]):
            i = rng.randrange(dim)
            points.append(x[:i] + (x[i] + rng.choice((NUDGE, -NUDGE)),) + x[i + 1:])
    points += [tuple(rand_entry(rng, True) for _ in range(dim)) for _ in range(2)]
    return points


def assert_hull_matches(gens, dim, rng, kinds):
    p = PcaPolytope(dim, tuple(map(scaled, gens)))
    for x in map(scaled, probe_points(rng, gens, dim)):
        want = kernel_oracle.gauge(p, x)
        assert same_gauge(gauge(p, x), want), (gens, x)
        kinds.add("inf" if want is INFINITY else (want > 1) - (want < 1))


def assert_cone_matches(gens, dim, rng, verdicts):
    points, gens = probe_points(rng, gens, dim), [scaled(g) for g in gens]
    for x in map(scaled, points):
        want = kernel_oracle.cone_member(gens, x)
        assert cone_member(gens, x) is want, (gens, x)
        verdicts.add(want)


class TestLowRankMatchesAmbient:
    @pytest.mark.parametrize("dim", range(8))
    def test_random_low_rank_hulls(self, dim):
        rng = random.Random(f"span-facets/hull/{dim}")
        kinds = set()
        for _ in range(40):
            assert_hull_matches(low_rank_gens(rng, dim, False), dim, rng, kinds)
        assert kinds == ({-1} if dim == 0 else {"inf", -1, 0, 1})

    @pytest.mark.parametrize("dim", range(8))
    def test_random_low_rank_cones(self, dim):
        rng = random.Random(f"span-facets/cone/{dim}")
        verdicts = set()
        for _ in range(40):
            gens = low_rank_gens(rng, dim, rng.random() < 0.5)
            assert_cone_matches(gens, dim, rng, verdicts)
        assert verdicts == ({True} if dim == 0 else {True, False})


class TestEdgeCases:
    def cases(self):
        one = F(1)
        yield 0, []
        yield 0, [(), ()]
        for dim in (1, 2, 3):
            zero = (F(0),) * dim
            yield dim, []                                  # rank 0
            yield dim, [zero, zero]                        # rank 0, zero generators
            yield dim, [tuple(one if i == j else F(0) for i in range(dim))
                        for j in range(dim)]               # independent, full rank
        yield 3, [(F(1), F(2), F(0)), (F(1), F(2), F(0)), (F(0), F(0), F(0))]  # repeated
        yield 3, [(F(1), F(0), F(2)), (F(0), F(1), F(3))]  # independent, rank 2
        yield 4, [(F(1), F(1), F(0), F(0)), (F(2), F(2), F(0), F(0)), (F(0), F(0), F(1), F(1)),
                  (F(1), F(1), F(1), F(1))]                # dependent, rank 2
        yield 5, [(F(0), F(1, 3), F(0), F(2, 7), F(0))]   # rank 1, zero columns

    def test_hulls_and_cones(self):
        rng = random.Random("span-facets/edges")
        kinds, verdicts = set(), set()
        for dim, gens in self.cases():
            assert_hull_matches(gens, dim, rng, kinds)
            assert_cone_matches(gens, dim, rng, verdicts)
        assert kinds == {"inf", -1, 0, 1} and verdicts == {True, False}

    def test_points_just_off_the_span(self):
        gens = [scaled((F(1), F(1), F(0))), scaled((F(0), F(1), F(1)))]
        p = PcaPolytope(3, tuple(gens))
        on = (F(1, 2), F(1), F(1, 2))
        assert gauge(p, scaled(on)) == 1 and cone_member(gens, scaled(on))
        for i in range(3):
            off = scaled(on[:i] + (on[i] + NUDGE,) + on[i + 1:])
            assert gauge(p, off) is INFINITY is kernel_oracle.gauge(p, off)
            assert not cone_member(gens, off) and not kernel_oracle.cone_member(gens, off)

    def test_dimension_zero(self):
        empty = scaled(())
        assert gauge(PcaPolytope(0, ()), empty) == 0
        assert cone_member([], empty) and cone_member([empty], empty)


def coordinate_values(x):
    """The scaled coordinates x as `Fraction`s, None kept."""
    return None if x is None else tuple(F(a, x[0]) for a in x[1])


def independent_gens(rng, dim):
    """Up to dim linearly independent generators, with a zero one now and then."""
    gens = []
    for _ in range(rng.randint(0, dim)):
        g = tuple(rand_entry(rng, True) for _ in range(dim))
        if kernel_oracle.rref(Mat(gens + [g], ncols=dim))[2] == len(gens) + 1:
            gens.append(g)
    return gens + [(F(0),) * dim] * (rng.random() < 0.2)


class TestFactorizationStopsAtGeneratorColumns:
    """`_Span` reduces the whole [D G | D I] in one `_reduced`, its equation
    rows too, and reads its rank off the pivots among G's columns.  The
    factorization that stopped at the generators' columns
    (`kernel_oracle.GColumnsSpan`, equation rows unreduced) and the batch
    elimination (`kernel_oracle.FullSpan`) must give the same rank, pivots
    and values."""

    def assert_same(self, gens, dim, rng, seen):
        points, gens = probe_points(rng, gens, dim), tuple(map(scaled, gens))
        got = polyhedra._Span(gens, dim)
        for want in kernel_oracle.GColumnsSpan(gens, dim), kernel_oracle.FullSpan(gens, dim):
            assert (got.rank, got._pivots, got.independent) == \
                (want.rank, want._pivots, want.independent), gens
            if not got.independent:
                assert got._facets_of(True) == want._facets_of(True), gens
                assert got._facets_of(False) == want._facets_of(False), gens
            for x in map(scaled, points):
                coords = got.coordinates(x)
                assert coordinate_values(coords) == coordinate_values(want.coordinates(x)), \
                    (gens, x)
                g, w = got.gauge(x), want.gauge(x)
                assert (g is INFINITY) == (w is INFINITY) and (g is INFINITY or F(*g) == F(*w)), \
                    (gens, x)
                assert got.cone_member(x) == want.cone_member(x), (gens, x)
                seen.add((got.independent, coords is not None))

    @pytest.mark.parametrize("dim", range(7))
    def test_random_generator_lists(self, dim):
        rng = random.Random(f"span-facets/g-only/{dim}")
        seen = set()
        for _ in range(30):
            self.assert_same(low_rank_gens(rng, dim, rng.random() < 0.5), dim, rng, seen)
            self.assert_same(independent_gens(rng, dim), dim, rng, seen)
        # (independent, point on the span): in dimension 1 dependent generators span it all
        assert seen == ({(True, True)} if dim == 0 else
                        {(True, True), (True, False), (False, True), (False, dim == 1)})

    def test_edge_cases(self):
        rng, seen = random.Random("span-facets/g-only/edges"), set()
        for dim, gens in TestEdgeCases().cases():
            self.assert_same(gens, dim, rng, seen)
        assert len(seen) == 4


# ---------------------------------------------------------------------------
# the budget


def moment_curve_witness(n):
    """The `ghat` 6+4 one-letter witness with its 16-dimensional middle node's
    generators replaced by n points on the moment curve: (t, ..., t^6)
    repeated across the coordinates and scaled to sum 1, t = 1..n.  Their
    hull, a cyclic polytope, has on the order of n^3 facets."""
    z = five_node_zigzag(*lifted_pair(random.Random(0), T.PCA, 6, 4, ("a",)))
    middle = z.nodes[2]
    assert middle.dim == 16
    gens = []
    for t in range(1, n + 1):
        p = [t ** (i % 6 + 1) for i in range(16)]
        gens.append(scaled([F(a, sum(p)) for a in p]))
    return replace(z, nodes=z.nodes[:2] + (replace(middle, generators=tuple(gens)),)
                   + z.nodes[3:])


BUDGET_DETAIL = f"facet enumeration exceeded its budget of {polyhedra.FACET_STEP_BUDGET} steps"


@pytest.fixture
def enumerations(monkeypatch):
    """The (generator count, hull) of every facet enumeration."""
    calls, original = [], polyhedra._Span._enumerate
    monkeypatch.setattr(polyhedra._Span, "_enumerate", lambda self, hull: calls.append(
        (self.k, hull)) or original(self, hull))
    return calls


@pytest.mark.parametrize("n", [48, 64])
def test_moment_curve_overruns_the_budget_quickly(n, enumerations):
    text = zigzag_to_text(moment_curve_witness(n))
    start = time.perf_counter()
    report = verify_zigzag(parse_zigzag(text))
    elapsed = time.perf_counter() - start
    assert not report.valid
    overrun = [c.name for c in report.failures() if c.detail == BUDGET_DETAIL]
    assert overrun == ["node-coalgebra[2]", "relating[2]"]
    assert enumerations == [(n, True)]  # the overrun is kept, not enumerated again
    assert elapsed < 1, elapsed


@pytest.fixture
def no_budget(monkeypatch, enumerations):
    """A facet step budget of 0."""
    monkeypatch.setattr(polyhedra, "FACET_STEP_BUDGET", 0)
    return enumerations


def test_overrun_is_raised_again_without_a_second_enumeration(no_budget):
    span = polyhedra._Span((scaled((1, 0)), scaled((0, 1)), scaled((1, 1))), 2)
    for _ in range(2):
        with pytest.raises(SearchBudgetExceeded, match="budget of 0 steps"):
            span.gauge(scaled((1, 1)))
    assert no_budget == [(3, True)]
    assert span._facets == {True: "facet enumeration exceeded its budget of 0 steps"}


def test_independent_generators_need_no_facets(no_budget):
    """A simplex and a simplicial cone are decided by the unique coordinates,
    so even a budget of 0 steps is never spent."""
    gens = (scaled((1, 0, 0)), scaled((1, 1, 0)), scaled((0, 0, 0)), scaled((1, 1, 0)))
    triangle = PcaPolytope(3, gens)
    assert gauge(triangle, scaled((2, 1, 0))) == 2
    assert gauge(triangle, scaled((1, 2, 0))) is INFINITY
    assert gauge(triangle, scaled((1, 1, 1))) is INFINITY
    assert cone_member(gens, scaled((2, 1, 0)))
    assert not cone_member(gens, scaled((0, 1, 0)))
    assert no_budget == []


def test_generator_of_wrong_length_is_rejected():
    # the factorization would otherwise cut the generators short
    with pytest.raises(ValueError, match="wrong dimension"):
        cone_member(((1, (1, 0, 0)), (1, (0, 1))), (1, (1, 1, 0)))
    with pytest.raises(ValueError, match="wrong dimension"):
        cone_member(((1, (1, 0)), (1, (0, 1))), (1, (1, 1, 0)))


def test_producer_double_description_is_unbounded(no_budget):
    """The restrictions a witness is built from ignore the verifier's budget."""
    rng = random.Random("span-facets/producer")
    for tag in (T.QPLUS, T.UNIT, T.PCA):
        z = (five_node_zigzag if tag is T.PCA else span_zigzag)(
            *lifted_pair(rng, tag, 4, 2, ("a", "b")))
        assert z.nodes[len(z.nodes) // 2].generators


def test_gauge_command_reports_an_overrun(tmp_path, capsys, no_budget):
    path = tmp_path / "square.pca"
    path.write_text("pca 2\ngen 1 0\ngen 0 1\ngen 1 1\n")
    assert main(["gauge", str(path), "1", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: facet enumeration exceeded its budget of 0 steps\n"
