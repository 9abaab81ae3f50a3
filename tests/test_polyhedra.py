import random
from fractions import Fraction as F

import pytest

from wazz import polyhedra
from wazz.formats import fmt_vec
from wazz.linalg import Mat, scaled, unit
from wazz.polyhedra import (HRep, INFINITY, PRODUCT, SCALED, InternalError, PcaPolytope,
                            cone_member, cone_restriction, dd_h_to_v, dd_v_to_h, gauge,
                            simplex_restriction)
from wazz.hilbert import qplus_restriction_by_scaling

from matvec_oracle import fractions, funit, hrep, svec, vdot, vector, vrep, zeros

from ghat_oracle import pca_member
from lp_oracle import lp_feasible


def H(dim, rows):
    return hrep(dim, [(vector(a), F(b)) for a, b in rows])


def simplex_h(n):
    rows = [([-1 if j == i else 0 for j in range(n)], 0) for i in range(n)]
    rows.append(([1] * n, 1))
    return H(n, rows)


def delta(n):
    return PcaPolytope(n, tuple(unit(n, i) for i in range(n)))


def pca_polytope_to_text(p):
    """The `pca` text that `parse_pca_polytope` reads, one `gen` line per
    generator: the writer of the round-trip test."""
    lines = [f"pca {p.dim}"]
    for g in p.generators:
        lines.append(("gen " + fmt_vec(g)).rstrip())
    return "\n".join(lines) + "\n"


def rand_point(rng, dim, span=4, den=4):
    return vector([F(rng.randint(-span, span), rng.randint(1, den)) for _ in range(dim)])


# --- independent LP oracle (its own little elimination, no reuse) ----------

def oracle_min_sum(gens, x):
    """min sum(c) with sum c_i g_i = x, c >= 0, by naive elimination."""
    dim = len(x)
    n = len(gens)
    # variables c_0..c_{n-1}; constraints as rows (coeffs, bound): <coeffs,c> <= bound
    rows = []
    for j in range(dim):
        coeffs = [g[j] for g in gens]
        rows.append((list(coeffs), x[j]))
        rows.append(([-a for a in coeffs], -x[j]))
    for i in range(n):
        e = [0] * n
        e[i] = -1
        rows.append((e, 0))
    # objective: minimize sum c = t; encode t as extra last variable, then
    # eliminate all c variables and read the lower bound for t
    full = []
    for coeffs, b in rows:
        full.append((list(coeffs) + [0], F(b)))
    full.append(([1] * n + [-1], F(0)))   # sum c - t <= 0
    full.append(([-1] * n + [1], F(0)))   # t <= sum c
    nvars = n + 1
    system = [([F(c) for c in coeffs], F(b)) for coeffs, b in full]
    for var in range(n):  # eliminate c_var
        lows, ups, rest = [], [], []
        for coeffs, b in system:
            c = coeffs[var]
            if c > 0:
                ups.append((coeffs, b))
            elif c < 0:
                lows.append((coeffs, b))
            else:
                rest.append((coeffs, b))
        system = list(rest)
        for cl, bl in lows:
            for cu, bu in ups:
                f1, f2 = cu[var], -cl[var]
                coeffs = [f1 * a + f2 * b2 for a, b2 in zip(cl, cu)]
                system.append((coeffs, f1 * bl + f2 * bu))
        pruned = []
        for coeffs, b in system:
            if all(a == 0 for a in coeffs):
                if b < 0:
                    return INFINITY
            else:
                pruned.append((coeffs, b))
        system = pruned
    lo = None
    for coeffs, b in system:
        c = coeffs[n]
        if c < 0:
            bound = b / c
            lo = bound if lo is None else max(lo, bound)
    return F(0) if lo is None else max(F(0), lo)


class TestDD:
    def test_simplex(self):
        v = dd_h_to_v(simplex_h(2))
        assert set(v.points) == {svec([0, 0]), svec([1, 0]), svec([0, 1])}
        assert v.directions == ()

    def test_positive_quadrant(self):
        v = dd_h_to_v(H(2, [([-1, 0], 0), ([0, -1], 0)]))
        assert v.points == (svec([0, 0]),)
        assert set(v.directions) == {svec([1, 0]), svec([0, 1])}

    def test_unbounded_slab(self):
        v = dd_h_to_v(H(2, [([-1, 0], 0), ([0, -1], 0), ([0, 1], 1)]))
        assert set(v.points) == {svec([0, 0]), svec([0, 1])}
        assert set(v.directions) == {svec([1, 0])}

    def test_empty(self):
        v = dd_h_to_v(H(1, [([-1], -1), ([1], 0)]))  # x >= 1 and x <= 0
        assert v.is_empty
        h = dd_v_to_h(v)
        assert not h.member(svec(zeros(1)))

    def test_whole_space(self):
        v = vrep(2, (zeros(2),), (funit(2, 0), vector([-1, 0]), funit(2, 1), vector([0, -1])))
        h = dd_v_to_h(v)
        assert h.ineqs == ()

    def test_pyramid_vertices(self):
        # strictly positive u = (2,1): simple polytope with n+1 vertices
        h = H(2, [([-1, 0], 0), ([0, -1], 0), ([2, 1], 1)])
        v = dd_h_to_v(h)
        assert v.directions == ()
        assert set(v.points) == {svec(zeros(2)), svec(["1/2", 0]), svec([0, 1])}

    def test_roundtrip_membership(self):
        rng = random.Random(41)
        cases = 0
        while cases < 50:
            dim = rng.randint(1, 4)
            nineq = rng.randint(1, 8)
            h = H(dim, [([rng.randint(-3, 3) for _ in range(dim)], rng.randint(-3, 3))
                        for _ in range(nineq)])
            v = dd_h_to_v(h)
            h2 = dd_v_to_h(v)
            cases += 1
            for _ in range(20):
                x = svec(rand_point(rng, dim))
                assert h.member(x) == h2.member(x)
            # vertices and shifted directions stay inside the original
            for p in v.points:
                assert h.member(p)
                for d in v.directions:
                    assert h.member(svec([a + 7 * b for a, b in zip(fractions(p), fractions(d))]))


class TestGauge:
    def test_simplex_gauge(self):
        assert gauge(delta(2), svec(["1/2", "1/4"])) == F(3, 4)

    def test_zero(self):
        assert gauge(delta(2), svec([0, 0])) == 0

    def test_pyramid_example(self):
        pyr = PcaPolytope(2, (svec(["1/2", 0]), svec([0, 1])))
        assert gauge(pyr, svec([1, 1])) == 3

    def test_outside_cone(self):
        assert gauge(delta(1), svec([-1])) is INFINITY

    def test_laws_and_lp_agreement(self):
        rng = random.Random(43)
        checked = 0
        while checked < 60:
            dim = rng.randint(1, 3)
            ngen = rng.randint(1, 3)
            gens = []
            for _ in range(ngen):
                gens.append(svec([F(rng.randint(0, 4), rng.randint(1, 3))
                                  for _ in range(dim)]))
            X = PcaPolytope(dim, tuple(gens))
            x = rand_point(rng, dim, span=3)
            y = rand_point(rng, dim, span=3)
            gx, gy = gauge(X, scaled(x)), gauge(X, scaled(y))
            # homogeneity
            p = F(rng.randint(0, 5), rng.randint(1, 3))
            if gx is INFINITY:
                if p > 0:
                    assert gauge(X, scaled([p * a for a in x])) is INFINITY
            else:
                assert gauge(X, scaled([p * a for a in x])) == p * gx
            # subadditivity, with INFINITY absorbing
            gxy = gauge(X, scaled([a + b for a, b in zip(x, y)]))
            if gx is not INFINITY and gy is not INFINITY:
                assert gxy is not INFINITY and gxy <= gx + gy
            # agreement with the independent LP oracle
            lp = oracle_min_sum([fractions(g) for g in X.generators], x)
            assert lp == gx or (lp is INFINITY and gx is INFINITY)
            # membership sandwich
            member = pca_member(X, x)
            assert member == (gx is not INFINITY and gx <= 1)
            checked += 1

    def test_intersection_law(self):
        rng = random.Random(47)
        for _ in range(40):
            dim = rng.randint(1, 3)
            def rand_poly():
                gens = [svec([F(rng.randint(0, 3), rng.randint(1, 2))
                              for _ in range(dim)]) for _ in range(rng.randint(1, 3))]
                return PcaPolytope(dim, tuple(gens))
            X, Y = rand_poly(), rand_poly()
            # X ∩ Y through the double description
            hx = dd_v_to_h(vrep(dim, (zeros(dim),) + tuple(map(fractions, X.generators))))
            hy = dd_v_to_h(vrep(dim, (zeros(dim),) + tuple(map(fractions, Y.generators))))
            both = dd_h_to_v(HRep(dim, hx.ineqs + hy.ineqs))
            XY = PcaPolytope(dim, tuple(p for p in both.points if any(p[1])))
            x = scaled(rand_point(rng, dim, span=2))
            gx, gy, gxy = gauge(X, x), gauge(Y, x), gauge(XY, x)
            if gx is INFINITY or gy is INFINITY:
                assert gxy is INFINITY
            else:
                assert gxy == max(gx, gy)


class TestLP:
    def test_interval(self):
        x = lp_feasible(H(1, [([-1], 0), ([1], 1)]))
        assert x is not None and 0 <= x[0] <= 1

    def test_infeasible(self):
        assert lp_feasible(H(1, [([-1], -1), ([1], 0)])) is None

    def test_pyramid_extension_system(self):
        # u_j >= 1/2 + u_j/2 and u_j <= 1 force u = (1,1)
        rows = [([-1, 0], 0), ([0, -1], 0),
                ([1, 0], 1), ([0, 1], 1),
                ([F(-1, 2), 0], F(-1, 2)), ([0, F(-1, 2)], F(-1, 2))]
        assert lp_feasible(H(2, rows)) == vector([1, 1])

    def test_vertex_on_bounded_regions(self):
        rng = random.Random(53)
        found = 0
        while found < 30:
            dim = rng.randint(1, 3)
            rows = [([rng.randint(-3, 3) for _ in range(dim)], rng.randint(-2, 3))
                    for _ in range(rng.randint(2, 6))]
            # box to keep it bounded
            for i in range(dim):
                e = [0] * dim
                e[i] = 1
                rows.append((list(e), 5))
                rows.append(([-a for a in e], 5))
            h = H(dim, rows)
            x = lp_feasible(h)
            v = dd_h_to_v(h)
            if x is None:
                assert v.is_empty
                continue
            found += 1
            assert h.member(scaled(x))
            assert scaled(x) in v.points  # lexicographic minimum is a vertex

    def test_dd_point_agrees_with_oracle(self):
        # polyhedra.lp_feasible reads a point off the double description
        rng = random.Random(59)
        feasible = {True: 0, False: 0}  # by whether the box bounds h
        for _ in range(60):
            dim = rng.randint(0, 3)
            rows = [([rng.randint(-3, 3) for _ in range(dim)], rng.randint(-2, 3))
                    for _ in range(rng.randint(1, 5))]
            box = rng.random() < 0.5
            if box:
                for i in range(dim):
                    rows.append(([1 if j == i else 0 for j in range(dim)], 5))
                    rows.append(([-1 if j == i else 0 for j in range(dim)], 5))
            h = H(dim, rows)
            x, y = polyhedra.lp_feasible(h), lp_feasible(h)
            assert (x is None) == (y is None)
            if x is not None:
                assert h.member(x)
                if box:
                    assert x == scaled(y)  # both the lexicographic minimum
                feasible[box] += 1
        assert min(feasible.values()) >= 5


class TestRestrictions:
    def test_cone_full_plane(self):
        rays = cone_restriction([unit(2, 0), unit(2, 1)])
        assert set(rays) == {svec([1, 0]), svec([0, 1])}

    def test_cone_diagonal(self):
        assert cone_restriction([svec([1, 1])]) == [svec([1, 1])]

    def test_cone_antidiagonal(self):
        assert cone_restriction([svec([1, -1])]) == []

    def test_cone_route_matches_scaling_route(self):
        rng = random.Random(59)
        for _ in range(20):
            dim = rng.randint(2, 4)
            k = rng.randint(1, dim)
            span = [svec([rng.randint(-2, 2) for _ in range(dim)]) for _ in range(k)]
            cone_gens = cone_restriction(span)
            scal_gens = [scaled(g) for g in qplus_restriction_by_scaling(map(fractions, span))]
            for g in scal_gens:
                assert cone_member(tuple(cone_gens), g)
            for g in cone_gens:
                assert cone_member(tuple(scal_gens), g)

    def test_simplex_product_full(self):
        p = simplex_restriction([unit(2, 0), unit(2, 1)], PRODUCT, 1, 1)
        assert set(p.generators) == {svec([1, 0]), svec([0, 1]), svec([1, 1])}

    def test_simplex_product_diagonal(self):
        p = simplex_restriction([svec([1, 1])], PRODUCT, 1, 1)
        assert p.generators == (svec([1, 1]),)

    def test_simplex_scaled_diagonal(self):
        p = simplex_restriction([svec([1, 1])], SCALED, 1, 1)
        assert p.generators == (svec([1, 1]),)

    def test_unbounded_simplex_intersection_is_internal_error(self, monkeypatch):
        # a ray with t = 0 of the homogenized cone in the span's coordinates
        rays = lambda normals, dim: [(0,) * (dim - 1) + (1,), (1,) * (dim - 1) + (0,)]
        monkeypatch.setattr(polyhedra, "_pointed_cone_rays", rays)
        with pytest.raises(InternalError, match="must be bounded"):
            simplex_restriction([svec([1, 1])], SCALED, 1, 1)


class TestTextFormats:
    def test_hrep_roundtrip(self):
        rng = random.Random(61)
        from wazz.polyhedra import hrep_to_text, parse_hrep
        for _ in range(20):
            dim = rng.randint(1, 4)
            h = H(dim, [([F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim)],
                         F(rng.randint(-3, 3), rng.randint(1, 2)))
                        for _ in range(rng.randint(0, 5))])
            assert parse_hrep(hrep_to_text(h)) == h

    def test_vrep_roundtrip(self):
        rng = random.Random(67)
        from wazz.polyhedra import parse_vrep, vrep_to_text
        for _ in range(20):
            dim = rng.randint(1, 4)
            v = vrep(dim,
                     tuple(rand_point(rng, dim) for _ in range(rng.randint(0, 3))),
                     tuple(rand_point(rng, dim) for _ in range(rng.randint(0, 2))))
            assert parse_vrep(vrep_to_text(v)) == v

    def test_pca_roundtrip_and_validation(self):
        from wazz.formats import ParseError
        from wazz.polyhedra import parse_pca_polytope
        p = PcaPolytope(2, (svec(["1/2", 0]), svec([0, 1])))
        assert parse_pca_polytope(pca_polytope_to_text(p)) == p
        with pytest.raises(ParseError):
            parse_pca_polytope("pca 1\ngen -1\n")


class TestVertexEnumerationOracle:
    def test_dd_matches_basic_solutions(self):
        # independent oracle: vertices = feasible basic solutions whose tight
        # constraints have full rank
        from itertools import combinations
        from wazz.linalg import rref
        from kernel_oracle import solve
        rng = random.Random(101)
        checked = 0
        while checked < 40:
            dim = rng.randint(1, 3)
            rows = [(vector([rng.randint(-3, 3) for _ in range(dim)]),
                     F(rng.randint(-2, 3))) for _ in range(rng.randint(1, 6))]
            for i in range(dim):
                e = [0] * dim
                e[i] = 1
                rows.append((vector(e), F(4)))
                rows.append((vector([-a for a in e]), F(4)))
            h = H(dim, rows)
            v = dd_h_to_v(h)
            assert not v.directions
            verts = set()
            for subset in combinations(range(len(rows)), dim):
                mat = Mat([rows[i][0] for i in subset])
                x = solve(mat, vector([rows[i][1] for i in subset]))
                if x is None or not h.member(scaled(x)):
                    continue
                if any(vdot(rows[i][0], x) != rows[i][1] for i in subset):
                    continue
                tight = [a for a, b in rows if vdot(a, x) == b]
                if rref(Mat(tight, ncols=dim))[2] == dim:
                    verts.add(scaled(x))
            if not verts:
                assert v.is_empty
                continue
            checked += 1
            assert set(v.points) == verts
