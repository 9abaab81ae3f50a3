import random
from fractions import Fraction as F

import pytest

import kernel_oracle
from wazz.linalg import (Mat, Lattice, _Hnf, closure_under_maps, hnf, hnf_with_transform,
                         is_integral, kernel_basis, lattice_member, lattice_reduce,
                         primitive, rref, scaled)
from matvec_oracle import (apply, columns, fraction_rows, fractions, from_cols, funit, identity,
                           solve_mat, svec, transpose, vector, zero, zeros)
from word_oracles import word_closure
from hilbert_oracle import lattice_coords
from wazz.formats import fmt_rat, parse_rat
from wazz.automata import parse_automaton
from wazz.pca import reduce_invariant_set


def M(rows):
    return Mat([[F(x) for x in r] for r in rows])


def rand_mat(rng, nr, nc, span=3):
    return Mat([[F(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(nc)]
                for _ in range(nr)])


class TestVector:
    def test_fraction_tuple_comes_back_as_is(self):
        v = (F(1, 2), F(0), F(-3))
        assert vector(v) is v
        assert vector(()) == ()

    def test_other_entries_are_converted(self):
        class Sub(F):
            pass

        half = F(1, 2)
        for entries in ([half, F(3)], (1, half), (Sub(1, 2), F(1)), [2, "1/3"], (True,),
                        iter([half])):
            got = vector(entries)
            assert type(got) is tuple and all(type(e) is F for e in got)
        assert vector([half, F(3)]) == (half, 3) and vector([half])[0] is half
        assert vector((1, half)) == (1, half)
        assert vector((Sub(1, 2), F(1))) == (half, 1)
        assert vector([2, "1/3"]) == (2, F(1, 3))


class TestRref:
    def test_identity(self):
        r, pivots, rank = rref(identity(2))
        assert r == identity(2)
        assert pivots == (0, 1)
        assert rank == 2

    def test_dependent_rows(self):
        # manual Gaussian elimination: second row is twice the first
        r, _, rank = rref(M([[1, 2], [2, 4]]))
        assert r == M([[1, 2], [0, 0]])
        assert rank == 1

    def test_zero(self):
        r, pivots, rank = rref(zero(2, 3))
        assert r == zero(2, 3)
        assert rank == 0

    def test_idempotent_on_random(self):
        rng = random.Random(7)
        for _ in range(40):
            m = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
            r1, _, k1 = rref(m)
            r2, _, k2 = rref(r1)
            assert r1 == r2 and k1 == k2


class TestTranspose:
    """`transpose` and the oracle's `from_cols` build a matrix from its
    columns; the shapes of empty matrices are where a zip loses track."""

    @pytest.mark.parametrize("nr, nc", [(0, 0), (0, 3), (3, 0), (1, 4), (4, 1), (3, 3)])
    def test_shapes_and_entries(self, nr, nc):
        m = rand_mat(random.Random(f"transpose/{nr}/{nc}"), nr, nc) if nr else Mat((), ncols=nc)
        t = transpose(m)
        assert (t.nrows, t.ncols) == (nc, nr)
        assert all(type(a) is F and a == fraction_rows(m)[j][i]
                   for i, r in enumerate(fraction_rows(t)) for j, a in enumerate(r))
        assert fraction_rows(t) == tuple(columns(m)) and transpose(t) == m
        assert from_cols(columns(m), nrows=nr) == m

    def test_block_diag_transposed(self):
        # square blocks, as the paired letter maps are, and blocks of every
        # other shape, empty ones included
        rng = random.Random("transpose/block-diag")
        for s1, s2 in [((0, 0), (0, 0)), ((0, 0), (2, 2)), ((2, 2), (0, 0)), ((1, 1), (1, 1)),
                       ((3, 3), (2, 2)), ((2, 2), (4, 4)), ((1, 3), (2, 1)), ((3, 1), (1, 2)),
                       ((0, 2), (3, 1)), ((2, 0), (1, 3)), ((2, 3), (0, 2)), ((1, 2), (3, 0))]:
            a, b = (Mat(rand_mat(rng, r, c).dense() if r else (), ncols=c) for r, c in (s1, s2))
            assert (a.nrows, a.ncols, b.nrows, b.ncols) == s1 + s2
            assert Mat.block_diag_transposed(a, b) == transpose(Mat.block_diag(a, b))

    def test_from_cols_converts_and_checks(self):
        assert from_cols([[1, "1/2"], [F(2), 0]]) == M([[1, 2], ["1/2", 0]])
        assert from_cols([(), ()]) == Mat((), ncols=2)
        assert from_cols([], nrows=2) == Mat([(), ()], ncols=0)
        with pytest.raises(ValueError):
            from_cols([[1, 2], [3]])
        with pytest.raises(ValueError):
            from_cols([])


class TestCanonicalForm:
    """A `Mat` is its common denominator and sparse integers, with the
    denominator coprime to them: built any way, the same entries compare
    equal, hash equal and scale alike."""

    # a subconvex automaton whose state 3 is a zero-output invariant set:
    # its quotient drops the only entries with denominator 3
    TEXT = "\n".join(["semiring pca", "alphabet a", "states 3", "output 1/4 1/4 0",
                       "trans a", "1/2 0 0", "1/4 1/2 0", "0 0 1/3", ""])

    def test_every_route_gives_one_form(self):
        want = Mat([[F("1/2"), F("1/4")], [0, F(1, 2)]])
        reader = parse_automaton("\n".join(["semiring q", "alphabet a", "states 2",
                                             "output 1 0", "trans a", "1/2 0", "2/8 1/2"]))
        aut = parse_automaton(self.TEXT)[0]
        dropped, quotient, _ = reduce_invariant_set(aut)
        assert dropped == {2} and aut.trans[0].den == 12
        empty = Mat((), ncols=0)
        routes = [reader[0].trans[0], transpose(transpose(want)),
                  Mat.block_diag(want, empty), Mat.block_diag(empty, want),
                  quotient.trans[0], Mat._of_cols(12, [[6, 0], [3, 6]], 2),
                  Mat._of_rows(12, [[6, 3], [0, 6]], 2),
                  Mat.block_diag_transposed(transpose(want), empty),
                  Mat([[F(1, 2), F(1, 4)], [0, F(1, 2)]])]
        for m in routes:
            assert m == want and hash(m) == hash(want)
            assert m.scaled() == want.scaled() == (4, (((0, 1), (2, 1)), ((1,), (2,))))
            assert (m.nrows, m.ncols, fraction_rows(m)) == (2, 2, fraction_rows(want))

    def test_zero_and_integer_matrices_have_denominator_one(self):
        for m in (Mat([[0, 0]]), Mat._of_cols(6, [[0], [0]], 1), Mat([[F("4/2"), F("-6/3")]]),
                  Mat._of_cols(5, [[10], [-5]], 1)):
            assert m.den == 1
        assert Mat._of_cols(5, [[10], [-5]], 1) == Mat([[2, -1]])


class TestKernel:
    def test_sum_functional(self):
        assert kernel_basis(M([[1, 1]])) == [vector([1, -1])]

    def test_injective(self):
        assert kernel_basis(identity(3)) == []

    def test_zero_map(self):
        assert kernel_basis(zero(1, 2)) == [funit(2, 0), funit(2, 1)]

    def test_rank_nullity_on_random(self):
        rng = random.Random(11)
        for _ in range(40):
            m = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
            _, _, rank = rref(m)
            ker = kernel_basis(m)
            assert rank + len(ker) == m.ncols
            for v in ker:
                assert apply(m, v) == zeros(m.nrows)


class TestSolve:
    def test_identity(self):
        assert solve_mat(identity(2), svec(["3/2", 1])) == svec(["3/2", 1])

    def test_underdetermined(self):
        x = solve_mat(M([[1, 1]]), svec([2]))
        assert x == svec([2, 0])

    def test_inconsistent(self):
        assert solve_mat(M([[1], [1]]), svec([0, 1])) is None

    def test_random_consistency(self):
        rng = random.Random(13)
        for _ in range(40):
            m = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
            target = vector([rng.randint(-2, 2) for _ in range(m.ncols)])
            b = apply(m, target)
            x = solve_mat(m, scaled(b))
            assert x is not None and apply(m, fractions(x)) == b

    def test_matches_fraction_oracle(self):
        """The integer back-substitution gives the `Fraction` one's x, in
        lowest terms, or None with it, on consistent and inconsistent
        systems of every shape, zero rows and columns included."""
        rng = random.Random("linalg/solve")
        consistent = 0
        for _ in range(300):
            nr, nc = rng.randint(0, 4), rng.randint(0, 4)
            m = Mat([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nc)]
                     for _ in range(nr)], ncols=nc)
            if rng.random() < 0.5:
                b = apply(m, vector([rng.randint(-2, 2) for _ in range(m.ncols)]))
            else:
                b = vector([F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m.nrows)])
            want = kernel_oracle.solve(m, b)
            got = solve_mat(m, scaled(b))
            assert got == (None if want is None else scaled(want)), (m, b)
            consistent += want is not None
        assert 100 < consistent < 300
        with pytest.raises(ValueError, match="wrong length"):
            solve_mat(M([[1, 1]]), svec([1, 2]))


class TestHnf:
    def test_even_sum_lattice(self):
        lat = hnf([(2, 0), (0, 2), (1, 1)])
        assert lat.basis == ((1, 1), (0, 2))

    def test_standard_basis(self):
        lat = hnf([(1, 0), (0, 1)])
        assert lat.basis == ((1, 0), (0, 1))

    def test_zero_rows(self):
        assert hnf([(0, 0)]).basis == ()

    def test_shape_invariants(self):
        rng = random.Random(17)
        for _ in range(40):
            dim = rng.randint(1, 4)
            rows = [tuple(rng.randint(-4, 4) for _ in range(dim))
                    for _ in range(rng.randint(1, 5))]
            lat = hnf(rows, dim=dim)
            pivots = []
            for row in lat.basis:
                p = next(j for j, a in enumerate(row) if a)
                assert row[p] > 0
                pivots.append(p)
            assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
            for i, p in enumerate(pivots):
                for k in range(i):
                    assert 0 <= lat.basis[k][p] < lat.basis[i][p]
            # same lattice in both directions
            for row in rows:
                assert lattice_member(row, lat)
            big = hnf(list(rows) + list(lat.basis), dim=dim)
            assert big == lat

    def test_transform(self):
        rows = [(2, 4), (3, 6), (1, 1)]
        lat, transform, rank = hnf_with_transform(rows, dim=2)
        for i in range(len(rows)):
            image = tuple(sum(transform[i][k] * rows[k][j] for k in range(len(rows)))
                          for j in range(2))
            if i < rank:
                assert image == lat.basis[i]
            else:
                assert image == (0, 0)
        assert hnf(transform[rank:], dim=len(rows)).basis == tuple(transform[rank:])

    def test_insertion_matches_batch_oracle(self):
        """`_Hnf.add` against `kernel_oracle._hnf_rows`, the batch HNF it
        replaced: the same basis row for row, growth reported exactly when
        the oracle's lattice grows, and a transform whose kernel rows have
        the oracle kernel's HNF."""
        rng = random.Random(41)
        for _ in range(300):
            dim = rng.randint(1, 8)
            bound = rng.choice((1, 10, 10 ** 6))
            rows = []
            for _ in range(rng.randint(0, 10)):
                kind = rng.random()
                if kind < 0.1:
                    rows.append((0,) * dim)
                elif kind < 0.2 and rows:
                    rows.append(rng.choice(rows))
                else:
                    rows.append(tuple(rng.randint(-bound, bound) if rng.random() < 0.7 else 0
                                      for _ in range(dim)))
            want = kernel_oracle.hnf(rows, dim)
            assert hnf(rows, dim=dim).basis == want.basis, rows
            span, seen = _Hnf(), []
            for row in rows:
                before = kernel_oracle.hnf(seen, dim)
                seen.append(row)
                assert span.add(list(row)) == (kernel_oracle.hnf(seen, dim) != before), rows
            assert tuple(map(tuple, span.rows)) == want.basis
            lat, transform, rank = hnf_with_transform(rows, dim=dim)
            oracle_lat, oracle_transform, oracle_rank = kernel_oracle.hnf_with_transform(rows, dim)
            assert lat == oracle_lat == want and rank == oracle_rank == want.rank
            assert len(transform) == len(rows)
            for u, h in zip(transform, lat.basis):
                assert tuple(sum(c * r[j] for c, r in zip(u, rows)) for j in range(dim)) == h
            for u in transform[rank:]:
                assert not any(sum(c * r[j] for c, r in zip(u, rows)) for j in range(dim))
            assert (hnf(transform[rank:], dim=len(rows))
                    == kernel_oracle.hnf(oracle_transform[oracle_rank:], len(rows)))
            # the kernel rows are already in HNF: no second `hnf` needed
            assert hnf(transform[rank:], dim=len(rows)).basis == tuple(transform[rank:])

    def test_reduce_and_coords(self):
        lat = hnf([(1, 1), (0, 2)])
        assert lattice_reduce((5, 3), lat) == (0, 0)
        assert lattice_reduce((5, 4), lat) == (0, 1)
        assert lattice_coords((5, 3), lat) == (5, -1)
        assert lattice_coords((5, 4), lat) is None


def q_closure(start, maps):
    return [v for _, v in word_closure(start, maps)]


class TestClosure:
    def test_nilpotent_shift(self):
        maps = [M([[0, 1], [0, 0]])]
        out = q_closure(funit(2, 1), maps)
        assert out == [funit(2, 1), funit(2, 0)]

    def test_zero_start(self):
        assert q_closure(zeros(2), [identity(2)]) == []
        assert closure_under_maps(scaled((0, 0)), [identity(2)]) == []

    def test_paired_example(self):
        # one-letter pairing of a 1-state and a 2-state machine; the third
        # iterate is 1/4 of the first, so the closure is 2-dimensional
        m = M([["1/2", 0, 0], [0, 0, "1/2"], [0, "1/2", 0]])
        out = q_closure(vector([1, 1, 0]), [m])
        assert out == [vector([1, 1, 0]), vector(["1/2", 0, "1/2"])]

    def test_closed_under_maps(self):
        rng = random.Random(23)
        for _ in range(25):
            dim = rng.randint(1, 4)
            nmaps = rng.randint(1, 2)
            for ring in ("Q", "Z"):
                if ring == "Q":
                    maps = [rand_mat(rng, dim, dim, span=2) for _ in range(nmaps)]
                    start = vector([rng.randint(-2, 2) for _ in range(dim)])
                    basis = q_closure(start, maps)
                    ech = kernel_oracle.Echelon()
                    for b in basis:
                        assert ech.add(b)
                    for b in basis:
                        for m in maps:
                            assert ech.contains(apply(m, b))
                    assert len(basis) <= dim
                else:
                    maps = [Mat([[F(rng.randint(-2, 2)) for _ in range(dim)]
                                 for _ in range(dim)]) for _ in range(nmaps)]
                    start = tuple(rng.randint(-2, 2) for _ in range(dim))
                    basis = closure_under_maps(scaled(start), maps)
                    lat = Lattice(dim, tuple(basis)) if basis else Lattice(dim, ())
                    for b in basis:
                        for m in maps:
                            img = apply(m, b)
                            assert is_integral(img)
                            assert lattice_member(img, lat)


class TestScalars:
    def test_rat_roundtrip(self):
        rng = random.Random(31)
        for _ in range(200):
            q = F(rng.randint(-50, 50), rng.randint(1, 40))
            assert parse_rat(fmt_rat(q)) == q
        assert fmt_rat(F(-1, 2)) == "-1/2"
        assert fmt_rat(F(6, 2)) == "3"

    def test_parse_rejects_junk(self):
        for bad in ("1.5", "x", "1/0", "--2", "2/-3", ""):
            with pytest.raises(ValueError):
                parse_rat(bad)

    def test_exactness(self):
        a, b = F(1, 3), F(10**12, 7)
        assert (a + b) - b == a

    def test_primitive(self):
        assert primitive(vector(["2/3", "-4/3"])) == (1, -2)
        assert primitive(vector(["-1/2", "1/2"]), flip_sign=True) == (1, -1)
        assert primitive(zeros(2)) == (0, 0)
