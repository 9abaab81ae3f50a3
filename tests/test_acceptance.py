"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  All comparisons are exact rational arithmetic; the runtime bounds
are asserted.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from wazz.automata import (LinearCoalgebra, SemiringTag, WeightedAutomaton, equivalent,
                           trace)
from wazz.hilbert import hilbert_basis
from wazz.linalg import Mat, scaled, unit
from wazz.pca import invariant_zero_set, pyramid_extension, reduce_invariant_set
from wazz.polyhedra import HRep, INFINITY, PcaPolytope, dd_h_to_v, dd_v_to_h, gauge
from wazz.zigzag import (FREE_PCA, GENERATED_MODULE, Morphism, ZigZag, five_node_zigzag,
                         span_zigzag, verify_zigzag)

from genrandom import lifted_pair, rand_automaton, rand_config
from ghat_oracle import GhatElement, ghat_apply, ghat_member, pca_member
from hilbert_oracle import hilbert_bruteforce_oracle, in_cone
from lp_oracle import lp_feasible
from matvec_oracle import (apply, column, fraction_rows, fractions, from_cols, funit, hrep,
                           identity, matmul, svec, vdot, vector, vrep, zeros)
from weights_oracle import scalar_ok
from test_hilbert import monoid_member, spec_of

T = SemiringTag


class Criterion:
    def __init__(self, number, label, limit=None):
        self.number = number
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number}: {status} ({elapsed:.1f}s) {self.label}")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, f"runtime {elapsed:.1f}s over {self.limit}s"
        return False


def random_equivalent_pair(rng, tag, max_n, alphabet_max=2):
    k = rng.randint(1, max_n - 1) if max_n > 1 else 1
    extra = rng.randint(0, max_n - k)
    alphabet = ("a", "b")[: rng.randint(1, alphabet_max)]
    return lifted_pair(rng, tag, k, extra, alphabet)


def test_criterion_1_cubic_span_shape():
    with Criterion(1, "cubic span shape over nat/qplus/rplus/unit", limit=60):
        rng = random.Random("criterion-1")
        for tag in (T.NAT, T.QPLUS, T.RPLUS, T.UNIT):
            for _ in range(200):
                aut1, x1, aut2, x2 = random_equivalent_pair(rng, tag, 4)
                z = span_zigzag(aut1, x1, aut2, x2)
                assert len(z.nodes) == 3  # exactly one intermediate node
                incoming = {m.dst for m in z.morphisms}
                assert incoming == {0, 2}
                assert all(z.nodes[i].is_free for i in incoming)
                report = verify_zigzag(z)
                assert report.valid, [c.name for c in report.failures()]


def test_criterion_2_ghat_five_node_shape():
    with Criterion(2, "subconvex five-node witnesses", limit=120):
        rng = random.Random("criterion-2")
        for _ in range(100):
            aut1, x1, aut2, x2 = random_equivalent_pair(rng, T.PCA, 3)
            z = five_node_zigzag(aut1, x1, aut2, x2)
            assert len(z.nodes) == 5
            incoming = {m.dst for m in z.morphisms}
            assert incoming == {1, 3}
            assert all(z.nodes[i].kind == FREE_PCA for i in incoming)
            report = verify_zigzag(z)
            assert report.valid, [c.name for c in report.failures()]


def test_criterion_3_equivalence_oracle_agreement():
    with Criterion(3, "equivalence decision matches the depth oracle", limit=60):
        for tag in T:
            rng = random.Random("criterion-3-" + tag.value)
            for i in range(1000):
                alphabet = ("a", "b")[: rng.randint(1, 2)]
                if i % 2:
                    # sizes up to 4 with a bias to small, to keep the full
                    # depth-(n1+n2) oracle traversal affordable
                    cap = rng.choice([2, 2, 3, 4])
                    n1, n2 = rng.randint(1, cap), rng.randint(1, cap)
                    aut1 = rand_automaton(rng, tag, n1, alphabet)
                    aut2 = rand_automaton(rng, tag, n2, alphabet)
                    x1 = rand_config(rng, tag, n1)
                    x2 = rand_config(rng, tag, n2)
                else:
                    cap = rng.choice([2, 3, 3, 4])
                    k = rng.randint(1, cap - 1) if cap > 1 else 1
                    aut1, x1, aut2, x2 = lifted_pair(rng, tag, k,
                                                     rng.randint(0, cap - k), alphabet)
                depth = aut1.n + aut2.n
                oracle = trace(aut1, x1, depth) == trace(aut2, x2, depth)
                assert equivalent(aut1, x1, aut2, x2).equivalent == oracle


def test_criterion_4_hilbert_correctness():
    with Criterion(4, "Hilbert bases: generation, minimality, oracle", limit=30):
        fixed = [
            ([(1, 0), (0, 1)], [(0, 1), (1, 0)]),
            ([(1, 0), (-1, 1)], [(1, 0), (1, 1)]),
            ([(1,), (0,)], [(0, -1), (0, 1), (1, 0)]),
        ]
        for rows, expected in fixed:
            assert hilbert_basis(Mat(rows)) == expected
        # the even-coordinate-sum lattice inside N^2
        from wazz.hilbert import nat_restriction
        from wazz.linalg import hnf
        assert nat_restriction(hnf([(1, 1), (0, 2)])) == [(0, 2), (1, 1), (2, 0)]
        rng = random.Random("criterion-4")
        done = 0
        while done < 20:
            k = rng.randint(2, 3)
            m = rng.randint(1, 3)
            s = spec_of([tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(k)])
            basis = hilbert_basis(s.w)
            if not basis:
                continue
            done += 1
            box = 3
            if all(all(abs(a) <= box for a in g) for g in basis):
                assert hilbert_bruteforce_oracle(s, box) == basis
            for _ in range(25):
                coeffs = [rng.randint(0, 3) for _ in basis]
                v = tuple(sum(c * g[t] for c, g in zip(coeffs, basis))
                          for t in range(s.k))
                assert monoid_member(basis, v, s)
            hits = 0
            for _ in range(150):
                v = tuple(rng.randint(-box, box) for _ in range(s.k))
                if any(v) and in_cone(s, v):
                    assert monoid_member(basis, v, s)
                    hits += 1
                    if hits >= 25:
                        break
            has_line = any(in_cone(s, tuple(-a for a in g)) for g in basis)
            if not has_line:
                for i, g in enumerate(basis):
                    assert not monoid_member(basis[:i] + basis[i + 1:], g, s)


def test_criterion_5_double_description_roundtrip():
    with Criterion(5, "double description round trip membership", limit=30):
        rng = random.Random("criterion-5")
        for _ in range(50):
            dim = rng.randint(1, 4)
            h = hrep(dim, [
                (vector([rng.randint(-3, 3) for _ in range(dim)]), F(rng.randint(-3, 3)))
                for _ in range(rng.randint(1, 8))])
            h2 = dd_v_to_h(dd_h_to_v(h))
            for _ in range(1000):
                x = svec([F(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(dim)])
                assert h.member(x) == h2.member(x)


def test_criterion_6_gauge_laws():
    with Criterion(6, "gauge laws and the worked values"):
        assert gauge(PcaPolytope(2, (unit(2, 0), unit(2, 1))),
                     svec(["1/2", "1/4"])) == F(3, 4)
        assert gauge(PcaPolytope(2, (svec(["1/2", 0]), svec([0, 1]))),
                     svec([1, 1])) == 3
        rng = random.Random("criterion-6")
        for _ in range(500):
            dim = rng.randint(1, 3)
            def rand_poly():
                return PcaPolytope(dim, tuple(
                    svec([F(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(dim)])
                    for _ in range(rng.randint(1, 3))))
            X = rand_poly()
            x = vector([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)])
            y = vector([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)])
            gx, gy = gauge(X, scaled(x)), gauge(X, scaled(y))
            p = F(rng.randint(0, 4), rng.randint(1, 2))
            if gx is INFINITY:
                if p > 0:
                    assert gauge(X, scaled([p * a for a in x])) is INFINITY
            else:
                assert gauge(X, scaled([p * a for a in x])) == p * gx
            gxy = gauge(X, scaled([a + b for a, b in zip(x, y)]))
            if gx is not INFINITY and gy is not INFINITY:
                assert gxy is not INFINITY and gxy <= gx + gy
            else:
                pass  # INFINITY absorbs; nothing to compare exactly
            # intersection law via the double description
            Y = rand_poly()
            hx, hy = (dd_v_to_h(vrep(dim, (zeros(dim),) + tuple(map(fractions, P.generators))
                                     )).ineqs for P in (X, Y))
            both = dd_h_to_v(HRep(dim, hx + hy))
            XY = PcaPolytope(dim, tuple(pt for pt in both.points if any(pt[1])))
            gxI, gyI, gI = (gauge(P, scaled(x)) for P in (X, Y, XY))
            if gxI is INFINITY or gyI is INFINITY:
                assert gI is INFINITY
            else:
                assert gI == max(gxI, gyI)
            # membership sandwich against a direct feasibility program
            member = pca_member(X, x)
            ngen = len(X.generators)
            ineqs = [(tuple(-q for q in funit(ngen, i)), F(0)) for i in range(ngen)]
            ineqs.append((vector([1] * ngen), F(1)))
            for d in range(dim):
                row = vector([fractions(g)[d] for g in X.generators])
                ineqs.append((row, x[d]))
                ineqs.append((tuple(-q for q in row), -x[d]))
            lp_member = lp_feasible(hrep(ngen, ineqs)) is not None
            assert member == lp_member
            assert member == (gx is not INFINITY and gx <= 1)


def test_criterion_7_pyramid_extension():
    with Criterion(7, "pyramid extension certificates"):
        c = LinearCoalgebra(n=2, alphabet=("a",), out=svec(["1/2", "1/2"]),
                            trans=(Mat([[F("1/2"), 0], [0, F("1/2")]]),))
        assert pyramid_extension(
            PcaPolytope(2, (unit(2, 0), unit(2, 1))), c).u == svec([1, 1])
        rng = random.Random("criterion-7")
        done = 0
        while done < 100:
            n = rng.randint(1, 3)
            alphabet = ("a", "b")[: rng.randint(1, 2)]
            aut = rand_automaton(rng, T.PCA, n, alphabet)
            _, quotient, _ = reduce_invariant_set(aut)
            k = quotient.n
            if k == 0:
                continue
            coalg = LinearCoalgebra(n=k, alphabet=alphabet, out=quotient.out,
                                    trans=quotient.trans)
            assert not invariant_zero_set(coalg.out, coalg.trans)
            simplex = PcaPolytope(k, tuple(unit(k, i) for i in range(k)))
            cert = pyramid_extension(simplex, coalg)
            done += 1
            u = fractions(cert.u)
            assert all(q > 0 for q in u)
            for j in range(k):  # containment family on the carrier generators
                assert vdot(funit(k, j), u) <= 1
            for j in range(k):  # fixed-point family on basis vectors
                lhs = fractions(coalg.out)[j] + sum(vdot(column(m, j), u) for m in coalg.trans)
                assert lhs <= u[j]
            pyramid = cert.polytope()
            from ghat_oracle import is_ghat_coalgebra
            assert is_ghat_coalgebra(pyramid, pyramid, coalg)


def test_criterion_8_functor_law_and_property_suites():
    with Criterion(8, "functor laws, monotonicity, lifting, reductions", limit=30):
        rng = random.Random("criterion-8")
        # functor laws and monotonicity
        for _ in range(100):
            dim = rng.randint(1, 3)
            e = GhatElement(F(rng.randint(0, 2), 4),
                            {"a": vector([F(rng.randint(0, 2), 4) for _ in range(dim)])})
            assert ghat_apply(identity(dim), e) == e
            f = Mat([[F(rng.randint(0, 2), 2) for _ in range(dim)] for _ in range(dim)])
            g = Mat([[F(rng.randint(0, 2), 2) for _ in range(dim)] for _ in range(dim)])
            assert ghat_apply(matmul(g, f), e) == ghat_apply(g, ghat_apply(f, e))
            small = PcaPolytope(dim, tuple(unit(dim, i) for i in range(dim)))
            big = PcaPolytope(dim, small.generators + (svec([1] * dim),))
            if ghat_member(small, e):
                assert ghat_member(big, e)
        # constructive preimages along surjections (200 instances)
        found = 0
        while found < 200:
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            cols = []
            for _ in range(n):
                raw = [rng.randint(0, 2) for _ in range(m)]
                den = max(1, sum(raw) + rng.randint(0, 1))
                cols.append(vector([F(x, den) for x in raw]))
            image_gens = tuple(scaled(c) for c in cols if any(c))
            image = PcaPolytope(m, image_gens)
            fmat = from_cols(cols, nrows=m)
            o = F(rng.randint(0, 2), 4)
            budget = 1 - o
            phi = {}
            for a in ("a", "b")[: rng.randint(1, 2)]:
                p = min(F(rng.randint(0, 2), 4), budget)
                budget -= p
                y = fractions(rng.choice(image.generators)) if image.generators else zeros(m)
                phi[a] = tuple(p * q for q in y)
            e = GhatElement(o, phi)
            assert ghat_member(image, e)
            found += 1
            pre_phi = {}
            for a, v in phi.items():
                p = gauge(image, scaled(v))
                if p == 0:
                    pre_phi[a] = zeros(n)
                    continue
                y = tuple(q / p for q in v)
                ineqs = [(tuple(-q for q in funit(n, i)), F(0)) for i in range(n)]
                ineqs.append((vector([1] * n), F(1)))
                for i in range(m):
                    row = vector([cols[j][i] for j in range(n)])
                    ineqs.append((row, y[i]))
                    ineqs.append((tuple(-q for q in row), -y[i]))
                lam = lp_feasible(hrep(n, ineqs))
                assert lam is not None
                pre_phi[a] = tuple(p * q for q in lam)
            pre = GhatElement(o, pre_phi)
            assert ghat_member(PcaPolytope(n, tuple(unit(n, i) for i in range(n))), pre)
            assert ghat_apply(fmat, pre) == e
        # cubic tuple former membership identities
        sub, ring = T.QPLUS, T.Q
        for _ in range(200):
            universe = [vector([rng.randint(-2, 2)]) for _ in range(6)]
            x_set = set(rng.sample(universe, 3))
            y_set = set(rng.sample(universe, 3))
            o = F(rng.randint(-2, 2), rng.randint(1, 2))
            parts = tuple(rng.choice(universe) for _ in range(2))
            lhs = (scalar_ok(ring, o) and all(p in x_set for p in parts)
                   and scalar_ok(sub, o) and all(p in y_set for p in parts))
            rhs = scalar_ok(sub, o) and all(p in (x_set & y_set) for p in parts)
            assert lhs == rhs
        # reduction morphism squares
        for _ in range(100):
            n = rng.randint(1, 4)
            alphabet = ("a", "b")[: rng.randint(1, 2)]
            aut = rand_automaton(rng, T.PCA, n, alphabet)
            dropped, quotient, f = reduce_invariant_set(aut)
            for j in range(n):
                e = funit(n, j)
                fe = apply(f, e)
                lhs_out = vdot(fractions(aut.out), e)
                assert lhs_out == vdot(fractions(quotient.out), fe)
                for a in alphabet:
                    assert apply(f, apply(aut.mat(a), e)) == apply(quotient.mat(a), fe)


def test_criterion_9_negative_controls():
    with Criterion(9, "verifier catches every tampering class"):
        aut1 = WeightedAutomaton(tag=T.QPLUS, n=1, alphabet=("a",),
                                 out=svec(["1/2"]), trans=(Mat([[F("1/2")]]),))
        aut2 = WeightedAutomaton(tag=T.QPLUS, n=2, alphabet=("a",),
                                 out=svec(["1/2", "1/2"]),
                                 trans=(Mat([[0, F("1/2")], [F("1/2"), 0]]),))
        x1, x2 = svec([1]), unit(2, 0)
        z = span_zigzag(aut1, x1, aut2, x2)
        assert verify_zigzag(z).valid
        assert z.nodes[1].generators  # tampering below must not be vacuous

        def rebuilt(**kw):
            fields = dict(functor=z.functor, tag=z.tag, alphabet=z.alphabet,
                          nodes=z.nodes, morphisms=z.morphisms,
                          relating=z.relating, endpoints=z.endpoints)
            fields.update(kw)
            return ZigZag(**fields)

        # tampered morphism entry
        mor = z.morphisms[0]
        rows = [list(r) for r in fraction_rows(mor.matrix)]
        rows[0][0] += 1
        bad = rebuilt(morphisms=(Morphism(mor.src, mor.dst, Mat(rows)), z.morphisms[1]))
        report = verify_zigzag(bad)
        assert not report.valid
        assert any(c.name.startswith("morphism-") for c in report.failures())

        # removed relating element
        report = verify_zigzag(rebuilt(relating=()))
        assert not report.valid
        assert any(c.name.startswith("relating[") or c.name.startswith("chain[")
                   for c in report.failures())

        # node kind tampering: a sink claimed generated, a dependent set claimed free
        sink = z.nodes[0]
        bad_sink = replace(sink, kind=GENERATED_MODULE)
        report = verify_zigzag(rebuilt(nodes=(bad_sink,) + z.nodes[1:]))
        assert not report.valid
        assert any(c.name == "node-kind[0]" for c in report.failures())

        mid = z.nodes[1]
        dependent = mid.generators + (svec([2 * q for q in fractions(mid.generators[0])]),)
        bad_mid = replace(mid, kind="FREE_MODULE", generators=dependent)
        report = verify_zigzag(rebuilt(nodes=(z.nodes[0], bad_mid, z.nodes[2])))
        assert not report.valid
        assert any(c.name == "node-kind[1]" for c in report.failures())
