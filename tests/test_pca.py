import importlib.util
import math
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from wazz import pca, polyhedra, zigzag
from wazz.automata import (LinearCoalgebra, NotEquivalent, SemiringTag, WeightedAutomaton,
                           parse_automaton, trace)
from wazz.formats import fmt_vec, parse_rat
from wazz.linalg import Mat, scaled, unit
from wazz.pca import (InvariantZeroSet, PyramidCert, invariant_zero_set, pyramid_extension,
                      reduce_invariant_set)
from wazz.polyhedra import INFINITY, InternalError, PcaPolytope, gauge
from wazz.zigzag import five_node_zigzag, verify_zigzag

from genrandom import lifted_pair, rand_automaton
import pyramid_oracle
from ghat_oracle import GhatElement, ghat_apply, ghat_member, is_ghat_coalgebra, pca_member
from kernel_oracle import solve as fraction_solve
from lp_oracle import lp_feasible, pyramid_normal
from matvec_oracle import (apply, column, fraction_rows, fractions, from_cols, funit, hrep,
                           identity, matmul, solve_mat, svec, vdot, vector, zero, zeros)

T = SemiringTag
WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def delta(n):
    return PcaPolytope(n, tuple(unit(n, i) for i in range(n)))


def coalg_of(aut):
    return LinearCoalgebra(n=aut.n, alphabet=aut.alphabet, out=aut.out,
                           trans=aut.trans)


def rand_pca_polytope(rng, dim, extra=2):
    """A polytope with Delta^dim inside it and inside the orthant."""
    gens = [unit(dim, i) for i in range(dim)]
    for _ in range(rng.randint(0, extra)):
        raw = [rng.randint(0, 3) for _ in range(dim)]
        den = max(1, rng.randint(max(1, sum(raw) - 2), sum(raw) + 2))
        gens.append(svec([F(x, den) for x in raw]))
    return PcaPolytope(dim, tuple(gens))


class TestMembership:
    def test_two_letter_budget(self):
        e = GhatElement(F(1, 2), {"a": vector(["1/4"]), "b": vector(["1/8"])})
        assert ghat_member(delta(1), e)

    def test_boundary(self):
        e = GhatElement(1, {"a": zeros(1), "b": zeros(1)})
        assert ghat_member(delta(1), e)

    def test_over_budget(self):
        e = GhatElement(F(1, 2), {"a": vector(["3/4"])})
        assert not ghat_member(delta(1), e)

    def test_negative_output(self):
        assert not ghat_member(delta(1), GhatElement(F(-1, 4), {"a": zeros(1)}))

    def test_outside_cone(self):
        assert not ghat_member(delta(1), GhatElement(0, {"a": vector([-1])}))


class InconsistentValues(ValueError):
    """The requested generator values admit no linear extension."""


def linear_extension(polytope, values, alphabet):
    """The linear map agreeing with the given values on the generators.

    `values` pairs up with polytope.generators; each entry is (o, vecs) with
    one image vector per letter.  If the generators do not span the whole
    space the extension is completed by zero on a complement.  Raises
    InconsistentValues when no linear map matches.
    """
    gens = [fractions(g) for g in polytope.generators]
    if len(values) != len(gens):
        raise ValueError("one value per generator required")
    n = polytope.dim
    alphabet = tuple(alphabet)
    gen_rows = Mat(tuple(gens), ncols=n)
    out = fraction_solve(gen_rows, vector([o for o, _ in values]))
    if out is None:
        raise InconsistentValues("output values are not linear in the generators")
    mats = []
    for a in alphabet:
        rows = []
        for i in range(n):
            rhs = vector([vector(vecs[a])[i] for _, vecs in values])
            row = fraction_solve(gen_rows, rhs)
            if row is None:
                raise InconsistentValues(f"letter {a!r} values are not linear")
            rows.append(row)
        mats.append(Mat(rows, ncols=n))
    return LinearCoalgebra(n=n, alphabet=alphabet, out=scaled(out), trans=tuple(mats))


class TestLinearExtension:
    def test_single_generator(self):
        c = linear_extension(delta(1), [(F(1, 2), {"a": vector(["1/2"])})], ("a",))
        assert c.out == svec(["1/2"])
        assert c.mat("a") == Mat([[F("1/2")]])

    def test_basis_columns(self):
        values = [(F(1, 4), {"a": vector(["1/8", "1/8"])}),
                  (F(1, 2), {"a": vector([0, "1/4"])})]
        c = linear_extension(delta(2), values, ("a",))
        assert column(c.mat("a"), 0) == vector(["1/8", "1/8"])
        assert column(c.mat("a"), 1) == vector([0, "1/4"])
        assert c.out == svec(["1/4", "1/2"])

    def test_inconsistent(self):
        poly = PcaPolytope(2, (svec([1, 0]), svec([2, 0])))
        values = [(F(1, 4), {"a": zeros(2)}), (F(1, 4), {"a": zeros(2)})]
        with pytest.raises(InconsistentValues):
            linear_extension(poly, values, ("a",))

    def test_dependent_but_consistent_completed_by_zero(self):
        poly = PcaPolytope(2, (svec([1, 0]), svec([2, 0])))
        values = [(F(1, 4), {"a": zeros(2)}), (F(1, 2), {"a": zeros(2)})]
        c = linear_extension(poly, values, ("a",))
        assert vdot(fractions(c.out), vector([1, 0])) == F(1, 4)
        assert fractions(c.out)[1] == 0  # complement of the span gets zero

    def test_unique_on_spanning_generators(self):
        rng = random.Random(111)
        for _ in range(20):
            n = rng.randint(1, 3)
            aut = rand_automaton(rng, T.PCA, n, ("a",))
            values = [(fractions(aut.out)[j],
                       {"a": column(aut.mat("a"), j)}) for j in range(n)]
            c = linear_extension(delta(n), values, ("a",))
            assert c.out == aut.out and c.mat("a") == aut.mat("a")


class TestCoalgebraCheck:
    def test_simplex_reduces_to_budget(self):
        rng = random.Random(113)
        for _ in range(30):
            n = rng.randint(1, 3)
            aut = rand_automaton(rng, T.PCA, n, ("a", "b"))
            assert is_ghat_coalgebra(delta(n), delta(n), coalg_of(aut))

    def test_zero_map(self):
        c = LinearCoalgebra(n=2, alphabet=("a",), out=svec([0, 0]),
                            trans=(zero(2, 2),))
        assert is_ghat_coalgebra(delta(2), delta(2), c)

    def test_over_budget_rejected(self):
        c = LinearCoalgebra(n=1, alphabet=("a",), out=svec(["1/2"]),
                            trans=(Mat([[F("3/4")]]),))
        assert not is_ghat_coalgebra(delta(1), delta(1), c)


class TestPyramid:
    def test_worked_diagonal(self):
        c = LinearCoalgebra(n=2, alphabet=("a",), out=svec(["1/2", "1/2"]),
                            trans=(Mat([[F("1/2"), 0], [0, F("1/2")]]),))
        cert = pyramid_extension(delta(2), c)
        assert cert.u == svec([1, 1])
        assert cert.generators == (unit(2, 0), unit(2, 1))

    def test_zero_coalgebra_rejected(self):
        c = LinearCoalgebra(n=2, alphabet=("a",), out=svec([0, 0]),
                            trans=(zero(2, 2),))
        with pytest.raises(InvariantZeroSet):
            pyramid_extension(delta(2), c)

    def test_single_state_full_output(self):
        c = LinearCoalgebra(n=1, alphabet=("a",), out=svec([1]),
                            trans=(zero(1, 1),))
        cert = pyramid_extension(delta(1), c)
        assert cert.u == svec([1])

    def test_sign_and_shape_errors(self):
        def coalg(out, rows):
            return LinearCoalgebra(n=2, alphabet=("a",), out=svec(out), trans=(Mat(rows),))

        with pytest.raises(ValueError, match="nonnegative"):
            pyramid_extension(delta(2), coalg(["1/2", "-1/4"], [[0, 0], [0, 0]]))
        with pytest.raises(ValueError, match="nonnegative"):
            pyramid_extension(delta(2), coalg(["1/2", "1/2"], [[0, F("-1/4")], [0, 0]]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            pyramid_extension(delta(3), coalg(["1/2", "1/2"], [[0, 0], [0, 0]]))

    def test_certificate_properties(self):
        rng = random.Random(127)
        done = 0
        while done < 40:
            n = rng.randint(1, 3)
            alphabet = ("a", "b")[: rng.randint(1, 2)]
            aut = rand_automaton(rng, T.PCA, n, alphabet)
            poly = rand_pca_polytope(rng, n)
            c = coalg_of(aut)
            if not is_ghat_coalgebra(poly, poly, c):
                continue
            if invariant_zero_set(c.out, c.trans):
                with pytest.raises(InvariantZeroSet):
                    pyramid_extension(poly, c)
                continue
            cert = pyramid_extension(poly, c)
            done += 1
            u = fractions(cert.u)
            assert all(q > 0 for q in u)
            # membership family: <x, u> <= mu_X(x) on generators and samples
            for g in poly.generators:
                assert vdot(fractions(g), u) <= 1
            for _ in range(5):
                x = vector([F(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(n)])
                gx = gauge(poly, scaled(x))
                assert gx is not INFINITY and vdot(x, u) <= gx
            # fixed-point family on basis vectors
            for j in range(n):
                lhs = fractions(c.out)[j] + sum(vdot(column(m, j), u) for m in c.trans)
                assert lhs <= u[j]
            # the pyramid is itself a carrier for the same map
            pyr = cert.polytope()
            assert is_ghat_coalgebra(pyr, pyr, c)
            for g in poly.generators:
                assert pca_member(pyr, fractions(g))  # X inside Y


def fm_pyramid_u(polytope, coalg):
    """The normal the Fourier-Motzkin pyramid gave, or None where it raised
    InternalError (no point, or a point with a zero coordinate)."""
    u = pyramid_normal(polytope, coalg)
    return None if u is None or any(q <= 0 for q in u) else scaled(u)


def reduced_coalgebra(aut):
    _, q, _ = reduce_invariant_set(aut)
    return coalg_of(q)


def sparsified(rng, aut, keep):
    """The automaton with each transition entry kept with probability `keep`;
    dropping mass keeps every joint budget."""
    trans = tuple(Mat([[x if rng.random() < keep else 0 for x in r] for r in fraction_rows(m)],
                      ncols=aut.n) for m in aut.trans)
    return WeightedAutomaton(tag=T.PCA, n=aut.n, alphabet=aut.alphabet, out=aut.out,
                             trans=trans)


def hull_test_pairs():
    """Lifted subconvex pairs whose five_node_zigzag hulls reach dimensions 0-5."""
    rng = random.Random("pyramid-vs-fm-hulls")
    for k, extra in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
        for _ in range(4):
            yield lifted_pair(rng, T.PCA, k, extra, ("a", "b")[: rng.randint(1, 2)])


class TestPyramidMatchesFourierMotzkin:
    """The one linear solve gives exactly the point Fourier-Motzkin gave, the
    least solution of the fixed-point system, and fails where it failed."""

    def assert_same(self, polytope, coalg):
        expected = fm_pyramid_u(polytope, coalg)
        if expected is None:
            with pytest.raises(InternalError):
                pyramid_extension(polytope, coalg)
            return False
        assert pyramid_extension(polytope, coalg).u == expected
        return True

    def test_random_reduced_coalgebras(self):
        rng = random.Random("pyramid-vs-fm")
        dims, larger = set(), 0
        for n in range(0, 6):
            for trial in range(12):
                alphabet = ("a", "b")[: 1 + trial % 2]
                c = reduced_coalgebra(rand_automaton(rng, T.PCA, n, alphabet))
                poly = rand_pca_polytope(rng, c.n) if trial % 3 else delta(c.n)
                if not is_ghat_coalgebra(poly, poly, c):
                    poly = delta(c.n)
                assert self.assert_same(poly, c)
                dims.add(c.n)
                larger += len(poly.generators) > c.n
        assert dims == set(range(0, 6)) and larger >= 10

    def test_sparse_six_states(self):
        # dense six-state systems are out of the oracle's reach
        rng = random.Random("pyramid-vs-fm-6")
        done = 0
        while done < 6:
            c = reduced_coalgebra(sparsified(rng, rand_automaton(rng, T.PCA, 6, ("a",)), 0.3))
            if c.n == 6:
                assert self.assert_same(delta(6), c)
                done += 1

    def test_hulls_built_by_ghat_zigzag(self, monkeypatch):
        calls = []
        original = zigzag.pyramid_extension

        def spy(polytope, coalg):
            calls.append((polytope, coalg))
            return original(polytope, coalg)

        monkeypatch.setattr(zigzag, "pyramid_extension", spy)
        for pair in hull_test_pairs():
            five_node_zigzag(*pair)
        assert {p.dim for p, _ in calls} >= {0, 1, 2, 3, 4, 5}
        assert any(len(p.generators) > p.dim for p, _ in calls)
        for polytope, coalg in calls:
            assert self.assert_same(polytope, coalg)

    def test_hulls_need_no_facets(self, monkeypatch):
        # the pyramid is checked on its normal alone: building the witnesses
        # neither enumerates a hull's facets nor gauges a point
        calls = []
        with monkeypatch.context() as mp:
            for module, name in ((polyhedra, "dd_v_to_h"), (polyhedra, "_Span"),
                                 (polyhedra, "gauge")):
                original = getattr(module, name)
                mp.setattr(module, name, lambda *args, name=name, original=original:
                           calls.append(name) or original(*args))
            witnesses = [five_node_zigzag(*pair) for pair in hull_test_pairs()]
        assert calls == []
        assert all(verify_zigzag(z).valid for z in witnesses)

    def test_infeasible_systems_fail_on_both_paths(self):
        rng = random.Random("pyramid-vs-fm-infeasible")
        outcomes = []
        for _ in range(150):
            n = rng.randint(1, 4)
            out = svec([F(rng.randint(0, 2), 2) for _ in range(n)])
            trans = tuple(Mat([[F(rng.choice([0, 0, 1, 2, 3]), 4) for _ in range(n)]
                               for _ in range(n)]) for _ in range(rng.randint(1, 2)))
            c = LinearCoalgebra(n=n, alphabet=("a", "b")[: len(trans)], out=out,
                                trans=trans)
            if invariant_zero_set(c.out, c.trans):
                continue
            outcomes.append(self.assert_same(rand_pca_polytope(rng, n), c))
        assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10


def pyramid_outcome(route, polytope, coalg):
    """The certificate, or the error's type, message and indices."""
    try:
        return route(polytope, coalg)
    except (ValueError, InvariantZeroSet, InternalError) as exc:
        return type(exc), str(exc), getattr(exc, "indices", None)


def with_entry(coalg, letter, i, j, value):
    """The coalgebra with entry (i, j) of one letter matrix replaced."""
    rows = [list(r) for r in fraction_rows(coalg.trans[letter])]
    rows[i][j] = value
    trans = list(coalg.trans)
    trans[letter] = Mat(rows, ncols=coalg.n)
    return LinearCoalgebra(n=coalg.n, alphabet=coalg.alphabet, out=coalg.out,
                           trans=tuple(trans))


class TestPyramidMatchesFractionOracle:
    """The integer elimination gives the certificate the `Fraction` solve
    gave, of the same type, and fails where it failed with the same error."""

    def assert_same(self, polytope, coalg):
        got = pyramid_outcome(pyramid_extension, polytope, coalg)
        want = pyramid_outcome(pyramid_oracle.pyramid_extension, polytope, coalg)
        assert got == want
        if isinstance(want, PyramidCert):
            assert all(type(d) is int and all(type(a) is int for a in ints)
                       for d, ints in (got.u, *got.generators))
            return "cert"
        return want[0].__name__ + ": " + want[1].split(":")[0]

    def test_random_coalgebras(self):
        outcomes = []
        for seed in range(4):
            rng = random.Random(f"pyramid-vs-fraction-{seed}")
            for _ in range(60):
                n = rng.randint(1, 6)
                aut = rand_automaton(rng, T.PCA, n, ("a", "b")[: rng.randint(1, 2)])
                out = [q if rng.random() < 0.7 else 0 for q in fractions(aut.out)]
                c = LinearCoalgebra(n=n, alphabet=aut.alphabet, out=scaled(out), trans=aut.trans)
                if rng.random() < 0.1:
                    c = with_entry(c, 0, rng.randrange(n), rng.randrange(n), F(-1, 3))
                poly = rand_pca_polytope(rng, n, extra=3) if rng.random() < 0.5 else delta(n)
                outcomes.append(self.assert_same(poly, c))
        assert {"cert", "ValueError: output and letter entries must be nonnegative",
                "InvariantZeroSet: zero-output invariant coordinates [0]",
                "InternalError: fixed point puts a carrier generator outside the pyramid"
                } <= set(outcomes)

    def test_invariant_sets_agree(self):
        rng = random.Random("invariant-set-vs-column-scan")
        sizes = set()
        for _ in range(300):
            n = rng.randint(1, 6)
            aut = rand_automaton(rng, T.PCA, n, ("a", "b")[: rng.randint(1, 2)])
            out = scaled([q if rng.random() < 0.4 else 0 for q in fractions(aut.out)])
            found = invariant_zero_set(out, aut.trans)
            assert found == pyramid_oracle.invariant_zero_set(out, aut.trans)
            sizes.add(len(found))
        assert {0, 1, 2, 3} <= sizes

    def test_each_error(self):
        def coalg(out, *letters):
            return LinearCoalgebra(n=len(out), alphabet=("a", "b")[: len(letters)],
                                   out=svec(out), trans=tuple(map(Mat, letters)))

        cases = {
            "ValueError: output and letter entries must be nonnegative":
                (delta(2), coalg(["1/2", "-1/4"], [[0, 0], [0, 0]])),
            "ValueError: dimension mismatch": (delta(3), coalg(["1/2", "1/2"], [[0, 0], [0, 0]])),
            "InvariantZeroSet: zero-output invariant coordinates [1, 2]":
                (delta(3), coalg(["1/2", 0, 0], [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
                                 [[0, 0, 0], [0, 1, 0], [0, 0, 0]])),
            # (I - N) u = out has no solution
            "InternalError: fixed-point system infeasible":
                (delta(1), coalg(["1/2"], [[1]])),
            # singular and consistent: the free coordinate is 0
            "InternalError: fixed point with a nonpositive coordinate":
                (delta(2), coalg([1, 1], [[2, 1], [1, 2]])),
            "InternalError: fixed point puts a carrier generator outside the pyramid":
                (PcaPolytope(1, (svec([1]), svec([3]))), coalg(["1/2"], [[0]])),
        }
        for expected, (polytope, c) in cases.items():
            assert self.assert_same(polytope, c) == expected
        # invertible, with a negative solution
        negative = coalg(["1/2"], [[2]])
        assert self.assert_same(delta(1), negative).endswith("nonpositive coordinate")
        # a free coordinate is 0, as in `linalg.solve`
        assert pca.fixed_point(svec([1, 1]), (Mat([[2, 1], [1, 2]]),)) == svec([-1, 0])

    def test_ghat_zigzag_builds_no_fraction_solve(self, monkeypatch):
        # the pyramid (one integer `solve`), the quotients and the
        # projections run on integers and coordinate selection
        built, new = [], F.__new__

        def spy(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        rng = random.Random("ghat-no-fraction-solve")
        pairs = [lifted_pair(rng, T.PCA, rng.randint(1, 3), rng.randint(1, 2),
                             ("a", "b")[: rng.randint(1, 2)]) for _ in range(30)]
        assert sum(any(reduce_invariant_set(aut)[0] for aut in pair[::2])
                   for pair in pairs) >= 5
        monkeypatch.setattr(F, "__new__", spy)
        F(1, 3)  # the spy is in place
        assert built == [(1, 3)]
        built.clear()
        witnesses = [five_node_zigzag(*pair) for pair in pairs]
        monkeypatch.undo()
        assert built == []
        assert all(verify_zigzag(z).valid for z in witnesses)


def fixed_point_by_mat(out, trans):
    """The fixed point as `pca.fixed_point` found it before it passed its
    integer rows to `solve`: d (I - N) built column by column as a `Mat`,
    which `solve` read back with `dense()`."""
    forms = [m.scaled() for m in trans]
    n, den = len(out[1]), math.lcm(*[d for d, _ in forms])
    cols = [[den * (i == j) for j in range(n)] for i in range(n)]
    for d, sparse in forms:
        for col, (js, nums) in zip(cols, sparse):
            for j, a in zip(js, nums):
                col[j] -= a * (den // d)
    return solve_mat(Mat._of_cols(den, cols, n), out)


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules.setdefault(spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


class TestFixedPointRows:
    def test_ghat_pca_inputs_match_the_mat_route(self, monkeypatch):
        """Every system the pyramid solves on pairs of the benchmark's
        `ghat-pca` workload, and each with its output doubled and with a
        letter matrix scaled by 3, has the fixed point the `Mat` route gave."""
        workloads = load_workloads()
        systems, original = [], pca.fixed_point

        def spy(out, trans):
            systems.append((out, trans))
            return original(out, trans)

        monkeypatch.setattr(pca, "fixed_point", spy)
        for pair in workloads.make_pairs("ghat-pca", 1, 40):
            a1, x1 = parse_automaton(workloads.to_text(pair.left, pair.x_left))
            a2, x2 = parse_automaton(workloads.to_text(pair.right, pair.x_right))
            try:
                five_node_zigzag(a1, x1, a2, x2)
            except NotEquivalent:
                pass
        monkeypatch.undo()
        assert len(systems) >= 40
        # an infeasible system, and a singular consistent one
        systems += [(svec(["1/2"]), (Mat([[1]]),)), (svec([1, 1]), (Mat([[2, 1], [1, 2]]),))]
        found = set()
        for out, trans in systems:
            for variant in ((out, trans), ((out[0], tuple(2 * a for a in out[1])), trans),
                            (out, (Mat([[3 * a for a in row] for row in fraction_rows(trans[0])],
                                       ncols=trans[0].ncols),) + trans[1:])):
                u = pca.fixed_point(*variant)
                assert u == fixed_point_by_mat(*variant)
                found.add(u is None)
        assert found == {True, False}


def looped_reduce_invariant_set(aut):
    """The reduction as it was first written: quotient, then look for a zero
    set again until none is left.  Oracle for the one-pass version; also
    returns the number of quotients it took."""
    keep = list(range(aut.n))
    current, rounds = aut, 0
    while True:
        dropped = invariant_zero_set(current.out, current.trans)
        if not dropped:
            break
        kept = [j for j in range(current.n) if j not in dropped]
        k = len(kept)
        out = scaled([fractions(current.out)[j] for j in kept])
        trans = tuple(Mat([[fraction_rows(m)[i][j] for j in kept] for i in kept], ncols=k)
                      for m in current.trans)
        current = WeightedAutomaton(tag=T.PCA, n=k, alphabet=current.alphabet,
                                    out=out, trans=trans)
        keep = [keep[j] for j in kept]
        rounds += 1
    proj = Mat([funit(aut.n, j) for j in keep], ncols=aut.n)
    return (frozenset(range(aut.n)) - frozenset(keep), current, proj), rounds


class TestReduction:
    def test_one_pass_matches_the_loop(self):
        rng = random.Random("reduce/one-pass")
        rounds = []
        for _ in range(400):
            n = rng.randint(1, 5)
            aut = rand_automaton(rng, T.PCA, n, ("a", "b")[: rng.randint(1, 2)])
            if rng.random() < 0.5:
                # zero some outputs, so that invariant zero sets are common
                silent = set(rng.sample(range(n), rng.randint(1, n)))
                aut = WeightedAutomaton(tag=T.PCA, n=n, alphabet=aut.alphabet,
                                        out=scaled([0 if j in silent else q
                                                    for j, q in enumerate(fractions(aut.out))]),
                                        trans=aut.trans)
            want, count = looped_reduce_invariant_set(aut)
            assert reduce_invariant_set(aut) == want
            rounds.append(count)
        assert rounds.count(1) >= 50
        assert max(rounds) == 1

    def test_worked_example(self):
        aut = WeightedAutomaton(tag=T.PCA, n=2, alphabet=("a",),
                                out=svec(["1/2", 0]),
                                trans=(Mat([[F("1/2"), 0], [0, 1]]),))
        dropped, quotient, f = reduce_invariant_set(aut)
        assert dropped == frozenset({1})
        assert quotient.n == 1
        assert quotient.out == svec(["1/2"])
        assert quotient.mat("a") == Mat([[F("1/2")]])
        assert f == Mat([[1, 0]])

    def test_positive_output_untouched(self):
        aut = WeightedAutomaton(tag=T.PCA, n=2, alphabet=("a",),
                                out=svec(["1/4", "1/4"]),
                                trans=(zero(2, 2),))
        dropped, quotient, f = reduce_invariant_set(aut)
        assert dropped == frozenset()
        assert quotient == aut
        assert f == identity(2)

    def test_everything_dead(self):
        aut = WeightedAutomaton(tag=T.PCA, n=2, alphabet=("a",),
                                out=svec([0, 0]), trans=(identity(2),))
        dropped, quotient, f = reduce_invariant_set(aut)
        assert dropped == frozenset({0, 1})
        assert quotient.n == 0
        assert f.nrows == 0 and f.ncols == 2

    def test_morphism_square_and_no_residual_set(self):
        rng = random.Random(131)
        for _ in range(60):
            n = rng.randint(1, 4)
            alphabet = ("a", "b")[: rng.randint(1, 2)]
            aut = rand_automaton(rng, T.PCA, n, alphabet)
            dropped, quotient, f = reduce_invariant_set(aut)
            assert not invariant_zero_set(quotient.out, quotient.trans)
            out, q_out = fractions(aut.out), fractions(quotient.out)
            for j in range(n):
                e = funit(n, j)
                assert vdot(out, e) == vdot(q_out, apply(f, e)) or j in dropped
                if j in dropped:
                    assert vdot(out, e) == 0
                    assert apply(f, e) == zeros(quotient.n)
                for a in alphabet:
                    assert apply(f, apply(aut.mat(a), e)) == apply(quotient.mat(a), apply(f, e))
            # traces are preserved through the projection
            x = vector([F(1, 2 * n) for _ in range(n)])
            assert (trace(aut, scaled(x), 3).values
                    == trace(quotient, scaled(apply(f, x)), 3).values)


class TestFunctorLaws:
    def rand_element(self, rng, poly, alphabet):
        o = F(rng.randint(0, 2), 4)
        phi = {}
        budget = 1 - o
        for a in alphabet:
            p = F(rng.randint(0, 2), 4)
            if p > budget:
                p = budget
            budget -= p
            pick = fractions(rng.choice(poly.generators)) if poly.generators else zeros(poly.dim)
            phi[a] = vscale_like(p, pick)
        return GhatElement(o, phi)

    def test_identity_and_composition(self):
        rng = random.Random(137)
        for _ in range(30):
            dim = rng.randint(1, 3)
            poly = rand_pca_polytope(rng, dim)
            e = self.rand_element(rng, poly, ("a", "b"))
            assert ghat_apply(identity(dim), e) == e
            f = Mat([[F(rng.randint(0, 2), 2) for _ in range(dim)] for _ in range(dim)])
            g = Mat([[F(rng.randint(0, 2), 2) for _ in range(dim)] for _ in range(dim)])
            assert ghat_apply(matmul(g, f), e) == ghat_apply(g, ghat_apply(f, e))

    def test_zero_map(self):
        e = GhatElement(F(1, 2), {"a": vector(["1/4", 0])})
        out = ghat_apply(zero(2, 2), e)
        assert out.o == F(1, 2) and out.phi["a"] == zeros(2)
        assert ghat_member(delta(2), out)

    def test_monotonicity(self):
        rng = random.Random(139)
        for _ in range(40):
            dim = rng.randint(1, 3)
            small = rand_pca_polytope(rng, dim, extra=1)
            big_gens = small.generators + tuple(
                rand_pca_polytope(rng, dim, extra=2).generators)
            big = PcaPolytope(dim, big_gens)
            e = self.rand_element(rng, small, ("a",))
            if ghat_member(small, e):
                assert ghat_member(big, e)


def vscale_like(p, v):
    return tuple(p * a for a in v)


class TestSurjectionLifting:
    def test_constructive_preimages(self):
        rng = random.Random(149)
        found = 0
        while found < 40:
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            cols = []
            for _ in range(n):
                raw = [rng.randint(0, 2) for _ in range(m)]
                den = max(1, sum(raw) + rng.randint(0, 1))
                cols.append(vector([F(x, den) for x in raw]))
            f = from_cols(cols, nrows=m)
            image = PcaPolytope(m, tuple(scaled(c) for c in cols if any(c)))
            alphabet = ("a", "b")[: rng.randint(1, 2)]
            # random member of the functor at the image
            o = F(rng.randint(0, 2), 4)
            phi, budget = {}, 1 - o
            for a in alphabet:
                p = min(F(rng.randint(0, 2), 4), budget)
                budget -= p
                y = fractions(rng.choice(image.generators)) if image.generators else zeros(m)
                phi[a] = vscale_like(p, y)
            e = GhatElement(o, phi)
            assert ghat_member(image, e)
            found += 1
            # constructive preimage: peel the gauge, lift the direction
            pre_phi = {}
            for a in alphabet:
                p = gauge(image, scaled(phi[a]))
                assert p is not INFINITY
                if p == 0:
                    pre_phi[a] = zeros(n)
                    continue
                y = vscale_like(1 / p, phi[a])
                ineqs = [(tuple(-q for q in funit(n, i)), F(0)) for i in range(n)]
                ineqs.append((vector([1] * n), F(1)))
                for i in range(m):
                    row = vector([cols[j][i] for j in range(n)])
                    ineqs.append((row, y[i]))
                    ineqs.append((tuple(-q for q in row), -y[i]))
                lam = lp_feasible(hrep(n, ineqs))
                assert lam is not None  # surjectivity onto the image
                pre_phi[a] = vscale_like(p, lam)
            pre = GhatElement(o, pre_phi)
            assert ghat_member(delta(n), pre)
            assert ghat_apply(f, pre) == e


class TestDefinitionAgreement:
    def test_summand_search_matches_gauge_form(self):
        rng = random.Random(151)
        for _ in range(50):
            dim = rng.randint(1, 2)
            poly = rand_pca_polytope(rng, dim, extra=1)
            alphabet = ("a", "b")[: rng.randint(1, 2)]
            o = F(rng.randint(0, 3), 3)
            phi = {a: vector([F(rng.randint(0, 2), rng.randint(1, 3))
                              for _ in range(dim)]) for a in alphabet}
            e = GhatElement(o, phi)
            gens = [fractions(g) for g in poly.generators]
            nv = len(alphabet) * len(gens)
            # feasibility of the summand decomposition as an exact LP
            ineqs = [(tuple(-q for q in funit(nv, i)), F(0)) for i in range(nv)]
            ineqs.append((vector([1] * nv), 1 - o))
            for ai, a in enumerate(alphabet):
                for d in range(dim):
                    row = [F(0)] * nv
                    for gi, g in enumerate(gens):
                        row[ai * len(gens) + gi] = g[d]
                    ineqs.append((vector(row), phi[a][d]))
                    ineqs.append((vector([-q for q in row]), -phi[a][d]))
            feasible = o >= 0 and lp_feasible(hrep(nv, ineqs)) is not None
            assert feasible == ghat_member(poly, e)


class TestCertSerialization:
    def test_rational_literals(self):
        c = LinearCoalgebra(n=2, alphabet=("a",), out=svec(["1/2", "1/3"]),
                            trans=(Mat([[F("1/2"), 0], [0, F("1/3")]]),))
        cert = pyramid_extension(delta(2), c)
        text = fmt_vec(cert.u)  # the normal vector as rational literals
        assert tuple(parse_rat(t) for t in text.split()) == fractions(cert.u)


class TestThreeMembershipForms:
    """The summand decomposition, the single-scale form, and the gauge
    inequality decide the same membership."""

    def test_single_scale_form_constructive(self):
        rng = random.Random(157)
        for _ in range(60):
            dim = rng.randint(1, 3)
            poly = rand_pca_polytope(rng, dim, extra=1)
            alphabet = ("a", "b")[: rng.randint(1, 2)]
            o = F(rng.randint(0, 3), 3)
            phi = {a: vector([F(rng.randint(0, 2), rng.randint(1, 3))
                              for _ in range(dim)]) for a in alphabet}
            e = GhatElement(o, phi)
            member = ghat_member(poly, e)
            # try to realize phi(a) = p_a * x_a with x_a in the carrier
            total = o
            realizable = o >= 0
            for a in alphabet:
                from wazz.polyhedra import gauge as mgauge
                p = mgauge(poly, scaled(phi[a]))
                if p is INFINITY:
                    realizable = False
                    break
                total += p
                if p > 0:
                    assert pca_member(poly, tuple(q / p for q in phi[a]))
            realizable = realizable and total <= 1
            assert member == realizable
