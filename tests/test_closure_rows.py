"""Each closure is eliminated once: the restrictions read the pair closure's
own echelon rows, the cospan's basis is the reduced form of the backward
closure's echelon rows, and the double description of a restriction starts
from the orthant of its frame, eliminating nothing.  Each reuse is held to
the elimination it replaced: the restrictions of the word images in the
ambient coordinates and the recomputing double description (`dd_oracle`),
and the `_int_rref` of the raw word functionals."""

import random
from fractions import Fraction as F
from operator import itemgetter

import pytest

import dd_oracle
import pair_oracle
from genrandom import lifted_pair, two_lifts
from kernel_oracle import _int_rref
from wazz import linalg, pca, polyhedra
from wazz.automata import SemiringTag, WeightedAutomaton, pair_quotient, pair_submodule
from wazz.linalg import Mat, _pivot_scales, unit
from wazz.polyhedra import PRODUCT, SCALED, cone_restriction, simplex_restriction
from span_oracle import paper_route

T = SemiringTag
SPAN_TAGS = (T.QPLUS, T.RPLUS, T.UNIT, T.PCA)


def zero_output(tag, diagonal, alphabet):
    """A diagonal automaton with zero output: every pair of these is equivalent."""
    n = len(diagonal)
    trans = tuple(Mat([[F(diagonal[i]) if i == j else 0 for j in range(n)] for i in range(n)])
                  for _ in alphabet)
    return WeightedAutomaton(tag=tag, n=n, alphabet=alphabet, out=(1, (0,) * n), trans=trans)


def pairs(tag):
    """Seeded pairs of the tag, 1-2 letters and up to 10+2 states: lifted
    pairs, pairs of two lifts, a zero span and a span of full rank."""
    rng = random.Random(f"closure-rows/{tag.value}")
    for k, extra in ((1, 0), (2, 1), (3, 1), (4, 2), (6, 2), (10, 2)):
        alphabet = ("a", "b")[:rng.randint(1, 2)]
        yield "lift", lifted_pair(rng, tag, k, extra, alphabet)
        if k <= 6:
            yield "two lifts", two_lifts(rng, tag, k, rng.randint(1, 2), alphabet)
    a, b = zero_output(tag, ("1/2", "1/4"), ("a",)), zero_output(tag, ("1/3",), ("a",))
    yield "zero span", (a, (1, (0, 0)), b, (1, (0,)))
    # (e1 + e2, e3) under diag(1/2, 1/4, 1/3): three distinct eigenvalues
    yield "full rank", (a, (1, (1, 1)), b, (1, (1,)))


def closure(pair):
    """(the scaled word images, the echelon rows) of the pair closure: the
    images of the `Fraction` route (`pair_oracle`), the rows of the basis
    `pair_submodule` returns."""
    return pair_oracle.pair_submodule(*pair)[0], [row for _, row in pair_submodule(*pair)[0]]


@pytest.fixture
def oracle_dd(monkeypatch):
    """Hold every `cone_rays` of the ambient restrictions to the recomputing
    double description, which starts from no orthant."""
    original = polyhedra.cone_rays

    def checked(normals, dim):
        got = original(normals, dim)
        assert got == dd_oracle.cone_rays(normals, dim), (normals, dim)
        return got

    monkeypatch.setattr(polyhedra, "cone_rays", checked)


@pytest.mark.parametrize("tag", SPAN_TAGS)
def test_restrictions_of_the_rows_match_the_ambient_ones(tag, oracle_dd):
    seen = set()
    for kind, pair in pairs(tag):
        images, rows = closure(pair)
        assert len(rows) == len(images)
        n1, n2 = pair[0].n, pair[2].n
        span = [(1, row) for row in rows]
        if kind == "zero span":
            assert rows == []
        if kind == "full rank":
            assert len(rows) == n1 + n2
        seen.add(kind)
        if tag in (T.QPLUS, T.RPLUS):
            got = cone_restriction(span)
            assert got == cone_restriction(images)
            assert got == dd_oracle.ambient_cone_restriction(images), (kind, images)
        else:
            family = PRODUCT if tag is T.UNIT else SCALED
            got = simplex_restriction(span, family, n1, n2)
            assert got == simplex_restriction(images, family, n1, n2)
            assert got == dd_oracle.ambient_simplex_restriction(images, family, n1, n2), \
                (kind, images)
    assert seen == {"lift", "two lifts", "zero span", "full rank"}


@pytest.mark.parametrize("tag", SPAN_TAGS)
def test_closure_rows_are_a_primitive_echelon_basis(tag):
    """Each row is primitive with a positive leading entry, every later row
    is zero there, and the rows span what the word images span."""
    for _, pair in pairs(tag):
        images, rows = closure(pair)
        leads = []
        for row in rows:
            lead = next(j for j, a in enumerate(row) if a)
            assert row[lead] > 0 and linalg.primitive(row) == tuple(row)
            assert all(row[p] == 0 for p in leads)
            leads.append(lead)
        n = pair[0].n + pair[2].n
        stacked = [list(r) for r in rows] + [list(ints) for _, ints in images]
        assert len(_int_rref(stacked, n)) == len(rows)


def reduced_basis(rows, n):
    """B of the reduced row echelon form of integer rows, as `pair_quotient`
    reads it: each pivot row over its pivot entry, over their lcm."""
    rows = [list(r) for r in rows]
    pivots = _int_rref(rows, n)
    den, scales = _pivot_scales(rows, pivots)
    return Mat._of_rows(den, [[a * s for a in row] for row, s in zip(rows, scales)], n)


@pytest.mark.parametrize("tag", [T.Q, T.REAL])
def test_cospan_basis_is_the_rref_of_the_raw_functionals(tag):
    """The backward closure's echelon rows and its raw word functionals have
    one reduced row echelon form, the sink's basis B = [h1 | h2]."""
    rng = random.Random(f"closure-rows/cospan/{tag.value}")
    for k, extra in ((1, 0), (2, 1), (4, 2), (8, 2)):
        alphabet = ("a", "b")[:rng.randint(1, 2)]
        for aut1, x1, aut2, x2 in (lifted_pair(rng, tag, k, extra, alphabet),
                                   two_lifts(rng, tag, k, 1, alphabet)):
            maps = [Mat.block_diag_transposed(a, b) for a, b in zip(aut1.trans, aut2.trans)]
            out = linalg._concat(aut1.out, aut2.out)
            ech = linalg._Echelon()
            functionals = [ints for _, (_, ints) in linalg._word_closure(out, maps, ech)]
            rows = [row for _, row in ech.rows]
            n1, n = aut1.n, aut1.n + aut2.n
            want = reduced_basis(functionals, n)
            assert reduced_basis(rows, n) == want
            h1, h2, _ = pair_quotient(aut1, x1, aut2, x2)
            assert h1 == Mat._of_rows(want.den, [r[:n1] for r in want.dense()], n1)
            assert h2 == Mat._of_rows(want.den, [r[n1:] for r in want.dense()], n - n1)


def cone_with_every_negative_unit(rng, dim):
    """Normals holding every -e_i, each scaled by 1-3 and some repeated, with
    random others, in shuffled order: a pointed cone in the orthant."""
    normals = [tuple(-rng.randint(1, 3) if j == i else 0 for j in range(dim))
               for i in range(dim) for _ in range(rng.randint(1, 2))]
    normals += [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(0, 2 * dim))]
    rng.shuffle(normals)
    return normals


@pytest.fixture
def simplex_calls(monkeypatch):
    """(dim, chosen normals) of each call of `_initial_simplex`."""
    calls = []
    original = polyhedra._initial_simplex

    def spy(normals, dim):
        base, rays = original(normals, dim)
        calls.append((dim, [normals[i] for i in base]))
        return base, rays

    monkeypatch.setattr(polyhedra, "_initial_simplex", spy)
    return calls


def is_negative_unit(a):
    return sum(1 for x in a if x) == 1 and min(a) < 0


def test_orthant_start_gives_the_elimination_start_rays(simplex_calls):
    """Listed first, the negative units are the start's chosen normals (the
    orthant); shuffled, the start eliminates to other ones.  Both starts
    give the rays of `dd_oracle`."""
    rng = random.Random("closure-rows/orthant")
    for _ in range(200):
        dim = rng.randint(1, 6)
        normals = cone_with_every_negative_unit(rng, dim)
        orthant_first = sorted(normals, key=lambda a: not is_negative_unit(a))
        want = set(dd_oracle.pointed_cone_rays(normals, dim))
        for order in (orthant_first, normals):
            simplex_calls.clear()
            got = polyhedra._pointed_cone_rays(order, dim)
            assert len(got) == len(set(got))
            assert set(got) == want, order
            assert [d for d, _ in simplex_calls] == [dim]
        simplex_calls.clear()
        polyhedra._pointed_cone_rays(orthant_first, dim)
        [(_, chosen)] = simplex_calls
        assert all(map(is_negative_unit, chosen)), orthant_first


def test_a_missing_negative_unit_takes_the_elimination_start(simplex_calls):
    rng = random.Random("closure-rows/no-orthant")
    for _ in range(100):
        dim = rng.randint(1, 6)
        gone = rng.randrange(dim)
        normals = [a for a in cone_with_every_negative_unit(rng, dim)
                   if not (a[gone] < 0 and a.count(0) == dim - 1)]
        try:
            want = set(dd_oracle.pointed_cone_rays(normals, dim))
        except ValueError:  # the rest do not have full rank
            continue
        assert set(polyhedra._pointed_cone_rays(normals, dim)) == want, normals
        [(d, chosen)] = simplex_calls
        assert d == dim and not all(map(is_negative_unit, chosen)), normals
        simplex_calls.clear()


def random_spans(rng):
    """Seeded (span vectors, n1, n2): 0-5 rational vectors in 2-7
    coordinates, some zero, repeated or combinations of earlier ones."""
    for _ in range(60):
        dim = rng.randint(2, 7)
        vectors = []
        for _ in range(rng.randint(0, 5)):
            kind = rng.random()
            if vectors and kind < 0.3:
                a, b = rng.choice(vectors), rng.choice(vectors)
                s, t = rng.randint(-2, 2), rng.randint(-2, 2)
                v = [s * x + t * y for x, y in zip(a, b)]
            elif kind < 0.4:
                v = [0] * dim
            else:
                v = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
            vectors.append(v)
        n1 = rng.randint(1, dim - 1)
        yield [linalg.scaled(v) for v in vectors], n1, dim - n1


def frames():
    """(span vectors, n1, n2) of the closure echelon rows of every seeded
    pair of the span tags, then of random spans."""
    for tag in SPAN_TAGS:
        for _, pair in pairs(tag):
            yield pair_submodule(*pair)[0], pair[0].n, pair[2].n
    yield from random_spans(random.Random("closure-rows/start"))


@pytest.fixture
def starts(monkeypatch):
    """(normals, dim, chosen indices, rays, `_eliminate` calls) of each
    double description's start; every cone's rays are held to `dd_oracle`.
    An insertion's residue and the back-substitution eliminate only
    through `_eliminate`, so its count covers both."""
    calls, eliminations = [], []
    start, dd, eliminate = polyhedra._initial_simplex, polyhedra._pointed_cone_rays, \
        linalg._eliminate

    def spy_eliminate(*args):
        eliminations.append(args)
        return eliminate(*args)

    def spy_start(normals, dim):
        eliminations.clear()
        base, rays = start(normals, dim)
        calls.append((normals, dim, base, rays, len(eliminations)))
        return base, rays

    def spy_dd(normals, dim, *budget):
        rays = dd(normals, dim, *budget)
        assert len(rays) == len(set(rays))
        assert set(rays) == set(dd_oracle.pointed_cone_rays(normals, dim)), (normals, dim)
        return rays

    monkeypatch.setattr(linalg, "_eliminate", spy_eliminate)
    monkeypatch.setattr(polyhedra, "_initial_simplex", spy_start)
    monkeypatch.setattr(polyhedra, "_pointed_cone_rays", spy_dd)
    return calls


def test_the_start_of_every_restriction_is_its_orthant(starts):
    """In a restriction's frame the first independent normals are the -e_k
    (the simplex's t-normal listed before its block sums), so the start
    eliminates nothing and its rays are e_1, ..., e_dim."""
    seen = set()
    for span, n1, n2 in frames():
        starts.clear()
        cone_restriction(span)
        simplex_restriction(span, PRODUCT, n1, n2)
        simplex_restriction(span, SCALED, n1, n2)
        r = len(polyhedra._span_frame([ints for _, ints in span], n1 + n2)[1])
        assert [dim for _, dim, _, _, _ in starts] == [r] * (r > 0) + [r + 1, r + 1]
        for normals, dim, base, rays, eliminated in starts:
            units = [unit(dim, k)[1] for k in range(dim)]
            assert eliminated == 0, (span, normals)
            assert [normals[i] for i in base] == [tuple(-a for a in e) for e in units]
            assert rays == units, (span, normals)
        seen.add(min(r, 2))
    assert seen == {0, 1, 2}


@pytest.mark.parametrize("tag", SPAN_TAGS)
def test_no_producer_zigzag_runs_the_elimination_start(tag, monkeypatch):
    """The producers' restrictions run on the closure's rows: one `_Echelon`
    per build eliminates in an insertion, the closure's.  Each frame
    (`_span_frame`) inserts those rows, already in echelon form, into an
    `_Echelon` of its own and only back-substitutes, and each double
    description's start (`_initial_simplex`) inserts the rows of [A^T | I],
    whose first independent normals are the -e_k, and eliminates nothing
    at all.  The pca pyramid's fixed point (`solve`) eliminates its own
    system, not the word images."""
    owners, echelons = [], []
    init, residue, reduced = (linalg._Echelon.__init__, linalg._Echelon.residue,
                              linalg._Echelon.reduced)

    def spy_init(self):
        init(self)
        self.owner, self.inserting, self.substituting = owners[-1] if owners else None, 0, 0
        echelons.append(self)

    def spy_residue(self, ints):
        res = residue(self, ints)
        self.inserting += res is not ints
        return res

    def spy_reduced(self):
        pivots, rows = reduced(self)
        ordered = [row for _, row in sorted(self.rows, key=itemgetter(0))]
        self.substituting += sum(row is not old for row, old in zip(rows, ordered))
        return pivots, rows

    def owned(name, f):
        def run(*args):
            owners.append(name)
            try:
                return f(*args)
            finally:
                owners.pop()
        return run

    monkeypatch.setattr(linalg._Echelon, "__init__", spy_init)
    monkeypatch.setattr(linalg._Echelon, "residue", spy_residue)
    monkeypatch.setattr(linalg._Echelon, "reduced", spy_reduced)
    monkeypatch.setattr(polyhedra, "_span_frame", owned("frame", polyhedra._span_frame))
    monkeypatch.setattr(polyhedra, "_initial_simplex",
                        owned("start", polyhedra._initial_simplex))
    monkeypatch.setattr(pca, "solve", owned("solve", pca.solve))
    build = paper_route(tag)
    built = closures = frames = starts = 0
    for kind, pair in pairs(tag):
        if kind == "full rank" and tag is T.PCA:
            continue  # a zero-output diagonal pca pair reduces to no states
        echelons.clear()
        build(*pair)
        built += 1
        assert [e.owner for e in echelons].count(None) == 1
        # a closure whose images are all zero or new eliminates nothing either
        eliminating = [e.owner for e in echelons if e.inserting and e.owner != "solve"]
        assert eliminating in ([], [None]), kind
        assert all(e.inserting == 0 for e in echelons if e.owner == "frame")
        assert all(e.inserting == e.substituting == 0 for e in echelons if e.owner == "start")
        closures += eliminating == [None]
        frames += sum(e.owner == "frame" for e in echelons)
        starts += sum(e.owner == "start" for e in echelons)
    assert built and closures and frames and starts
