"""Exact rational polyhedra: double description, gauges, restrictions.

Polyhedra are handled homogeneously: a polyhedron {x : Ax <= b} lifts to the
cone {(x,t) : Ax - tb <= 0, t >= 0}, whose extreme rays with positive last
coordinate are the vertices and the rest the directions.  The double
description runs on pointed cones only, in the coordinates of a span, and
every elimination is one `_Echelon` read by its back-substitution.  The
conversions (`dd_h_to_v`, `dd_v_to_h`, `cone_rays`) split the lineality of
{x : Ax <= 0} off as the kernel of A's echelon rows and run in A's row
space; the restrictions run in the span of their generators, which the
producers give as the pair closure's echelon rows, and their double
description starts from the orthant of the frame.  The verifier's carriers
are decided on one factorization of their generators (`_Span`): by
unique coordinates when the generators are independent, and by the facets
of the hull or cone, in the span's coordinates, when they are not.  Every
vector here is scaled (`wazz.linalg`), the rows of `HRep` and `VRep`, the
`wazz polytope` formats, too; the one `Fraction` built is `gauge`'s answer.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm
from operator import mul

from .formats import LineReader, fmt_vec
from .linalg import (Mat, _kernel_vectors, _lowest_terms, _pivot_scales, _reduced,
                     _sparse_apply, primitive, scaled_equal)


class InternalError(Exception):
    """A guarantee of the construction failed: a bug, not a property of the input."""


class SearchBudgetExceeded(Exception):
    """A budgeted search overran its step budget; the verifier reports it
    as a failed check."""


class _Infinity:
    """Symbolic infinite gauge value; compares unequal to every rational."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


@dataclass(frozen=True)
class HRep:
    """Finite intersection of half-spaces, each one scaled row (normal | bound)."""

    dim: int
    ineqs: tuple

    def __post_init__(self):
        object.__setattr__(self, "ineqs", tuple(self.ineqs))
        if any(len(ints) != self.dim + 1 for _, ints in self.ineqs):
            raise ValueError("normal of wrong dimension")

    def member(self, x):
        """Whether the scaled x = xs / e meets each row (a | b): <a, xs> <= b e."""
        e, xs = x
        if len(xs) != self.dim:
            raise ValueError("point of wrong dimension")
        return all(sum(map(mul, ints, xs)) <= ints[-1] * e for _, ints in self.ineqs)


@dataclass(frozen=True)
class VRep:
    """Convex hull of scaled points plus conic hull of scaled directions.

    A VRep with no points denotes the empty polyhedron; the set is bounded
    exactly when there are no directions.
    """

    dim: int
    points: tuple
    directions: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "directions", tuple(self.directions))
        if any(len(ints) != self.dim for _, ints in self.points + self.directions):
            raise ValueError("generator of wrong dimension")

    @property
    def is_empty(self):
        return not self.points


@dataclass(frozen=True)
class PcaPolytope:
    """Subconvex hull {sum c_i g_i : c_i >= 0, sum c_i <= 1} of nonnegative
    scaled generators; always contains 0."""

    dim: int
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for _, ints in self.generators:
            if len(ints) != self.dim:
                raise ValueError("generator of wrong dimension")
            if min(ints, default=0) < 0:
                raise ValueError("generators must be nonnegative")


# ---------------------------------------------------------------------------
# double description


def _initial_simplex(normals, dim):
    """(indices of the first `dim` linearly independent integer normals,
    extreme rays of the cone {x : Bx <= 0} of those normals B), from one
    `_reduced` of the dim rows of [A^T | I] (A of full rank, so its last
    pivot lies in A^T's columns): the pivot columns are the chosen normals,
    and row k reads d_k > 0 on the k-th of them and E_k in the identity
    part, E B^T = D being diagonal, so the ray of the k-th chosen normal,
    -B^-1 e_k = -E_k / d_k, is primitive(-E_k).  When those are -e_1, ...,
    -e_dim (`_span_frame`), nothing is eliminated and the rays are the e_k.
    """
    n = len(normals)
    pivots, rows = _reduced([[a[j] for a in normals] + [0] * j + [1] + [0] * (dim - j - 1)
                             for j in range(dim)])
    if pivots[-1] >= n:
        raise ValueError("constraint matrix does not have full rank")
    return pivots, [primitive([-a for a in row[n:]]) for row in rows]


def _facet_overrun(budget):
    return SearchBudgetExceeded(f"facet enumeration exceeded its budget of {budget} steps")


def _pointed_cone_rays(normals, dim, budget=inf):
    """Primitive integer extreme rays, in no fixed order, of the pointed
    cone {x : <a, x> <= 0 for all a}, whose normals have rank dim; the
    restrictions and the gauged carriers call it in the span's coordinates,
    in dimension r or r + 1.  SearchBudgetExceeded is raised once the steps,
    one per ray pair examined for adjacency and one per ray that pair's
    combinatorial test may compare, would exceed the budget.

    Incremental double description (Fukuda & Prodon 1996).  Normals are
    scaled to primitive integers, which changes no sign and no primitive
    ray, and zero or repeated ones, which add no constraint, are dropped.
    Each ray carries the set of processed constraints tight at it as an int
    bitmask (bit k for normals[k]).  The masks stay exact without being
    recomputed: a ray built from r_in (value < 0) and r_out (value > 0) is
    tight at an earlier constraint exactly when both parents are, because
    both enter with a positive coefficient and every earlier value is <= 0.
    Two rays are adjacent when no third ray is tight wherever both are; when
    fewer than dim - 2 constraints are common, the face they span has
    dimension above 2 and so holds a third ray, and the scan is skipped.

    The start is the cone of the first `dim` independent normals
    (`_initial_simplex`), in a restriction's frame the orthant (`_span_frame`).
    The extreme rays of the cone do not depend on the start.
    """
    if dim == 0:
        return []
    normals = list(dict.fromkeys(primitive(a) for a in normals if any(a)))
    base, first_rays = _initial_simplex(normals, dim)
    base_mask = sum(1 << k for k in base)
    rays = {ray: base_mask & ~(1 << k) for ray, k in zip(first_rays, base)}
    base = set(base)
    steps = 0
    for i, a in enumerate(normals):
        if i in base:
            continue
        bit = 1 << i
        kept, inside, violating = {}, [], []
        for r, mask in rays.items():
            value = sum(x * y for x, y in zip(a, r))
            if value < 0:
                kept[r] = mask
                inside.append((r, mask, value))
            elif value == 0:
                kept[r] = mask | bit
            else:
                violating.append((r, mask, value))
        steps += len(inside) * len(violating)
        if steps > budget:
            raise _facet_overrun(budget)
        masks = list(rays.values())
        for r_in, m_in, v_in in inside:
            for r_out, m_out, v_out in violating:
                common = m_in & m_out
                if common.bit_count() < dim - 2:
                    continue
                steps += len(masks)
                if steps > budget:
                    raise _facet_overrun(budget)
                # distinct extreme rays of a pointed cone have distinct masks
                if any(common & m == common for m in masks if m != m_in and m != m_out):
                    continue
                new = tuple(v_out * x - v_in * y for x, y in zip(r_in, r_out))
                kept[primitive(new)] = common | bit
        rays = kept
    return list(rays)


def _lifted(rays, rows):
    """The rays y in the coordinates of rows R lifted to x = yR, primitive and sorted."""
    cols = list(zip(*rows))
    return sorted(primitive([sum(map(mul, y, col)) for col in cols]) for y in rays)


def cone_rays(normals, dim):
    """(lineality basis, extreme rays of the pointed part) of {x : Ax <= 0}
    for rational normals, as primitive integer tuples, the rays sorted.

    The r rows R of A's frame span its row space, and their kernel is the
    lineality, as in `kernel_basis`.  The pointed part is the cone's part in
    the row space, onto which x = yR maps the pointed cone of the normals Ra
    in Q^r one-to-one, so its extreme rays are that cone's, lifted."""
    ints = [primitive(a) for a in normals]
    pivots, rows = _span_frame(ints, dim)
    rays = _pointed_cone_rays([[sum(map(mul, r, a)) for r in rows] for a in ints], len(rows))
    return _kernel_vectors(rows, pivots, dim), _lifted(rays, rows)


def _cone_generators(normals, dim):
    """Conic generators of {x : Ax <= 0}: the extreme rays of its pointed
    part and both signs of each lineality basis vector."""
    lineality, rays = cone_rays(normals, dim)
    return rays + [d for l in lineality for d in (l, tuple(-a for a in l))]


def _sorted_rationally(vectors):
    """The scaled vectors in lexicographic order, on their integers over one lcm."""
    den = lcm(*[d for d, _ in vectors])
    return sorted(vectors, key=lambda v: [a * (den // v[0]) for a in v[1]])


def dd_h_to_v(h):
    """Vertices and directions of an H-polyhedron (Minkowski direction): the
    rays of {(x, t) : <a, x> <= t b, t >= 0}, on each row's integers (a | b)."""
    if h.dim == 0:
        feasible = all(ints[0] >= 0 for _, ints in h.ineqs)
        return VRep(0, ((1, ()),) if feasible else (), ())
    normals = [ints[:-1] + (-ints[-1],) for _, ints in h.ineqs]
    normals.append((0,) * h.dim + (-1,))
    points, directions = set(), set()
    for r in _cone_generators(normals, h.dim + 1):  # lineality lies in t = 0
        if r[-1] > 0:
            points.add(_lowest_terms((r[-1], r[:-1])))
        else:
            directions.add((1, primitive(r[:-1])))
    if not points:
        return VRep(h.dim, (), ())
    return VRep(h.dim, tuple(_sorted_rationally(points)), tuple(sorted(directions)))


def dd_v_to_h(v):
    """Facet inequalities of a V-polyhedron, via the polar cone, primitive."""
    if v.dim == 0:
        return HRep(0, ()) if v.points else HRep(0, ((1, (-1,)),))
    if v.is_empty:
        return HRep(v.dim, ((1, (0,) * v.dim + (-1,)),))
    gens = [ints + (d,) for d, ints in v.points] + [ints + (0,) for _, ints in v.directions]
    facets = {primitive(r[:-1] + (-r[-1],))
              for r in _cone_generators(gens, v.dim + 1) if any(r[:-1])}
    return HRep(v.dim, tuple((1, f) for f in sorted(facets)))


def lp_feasible(h):
    """A scaled point of the H-polyhedron h, or None when h is empty: the
    least point `dd_h_to_v` finds on integers, which on a bounded polyhedron
    is its lexicographic minimum.  Nothing in wazz calls it;
    `bench/tracing.py` looks the name up to time it."""
    points = dd_h_to_v(h).points
    return points[0] if points else None


# ---------------------------------------------------------------------------
# gauges and cone membership

# Steps (`_pointed_cone_rays`) the facet enumeration of one gauged hull or
# cone may take.  A seed-1 pass of the benchmark enumerates facets once, in 10
# steps on ghat-pca, as nearly every witness is a cospan of diagonal nodes;
# the largest in the tests takes 128.  The hull of n points on the moment curve
# (t, ..., t^6) has on the order of n^3 facets; its enumeration takes 2.9
# million steps at n = 32 and 27 million at n = 48, about 6 million a second
# on a 2-core Xeon, so an overrun ends it within a few tenths of a second.
# The producer's double description is not bounded.
FACET_STEP_BUDGET = 1_000_000


class _Span:
    """One factorization of a carrier's scaled generators g_1, ..., g_k in
    Q^dim, for membership in their span, cone or subconvex hull.  The
    verifier builds none for a free carrier on positive multiples of the
    unit vectors, whose coordinates are one scaling per entry
    (`wazz.zigzag._diagonal`).

    With G's columns over the lcm D of their denominators, one `_reduced`
    of the rows of [D G | D I] gives [R | D E], E G = R up to a positive
    factor per row; E is kept as integer rows over one denominator.  Its r
    pivots in D G's k columns are G's rank, and its rows below r, zero on
    D G, are a basis of the span's equations, so v is in the span when E v
    vanishes below row r, and then its first r entries are the coordinates
    y(v) of v on the pivot generators.  When the distinct nonzero generators
    are independent these are unique: the cone is simplicial and the hull a
    simplex with vertex 0.  Otherwise y is one-to-one on the span, so one
    double description of rank r finds the facets: the hull's in dimension
    r + 1 on the normals (y(g), 1) and (0, 1), the cone's on the normals
    y(g).  They are enumerated on first use, before any span test, under
    FACET_STEP_BUDGET; an overrun is kept and raised again at every later
    use."""

    __slots__ = ("k", "rank", "independent", "_gens", "_pivots", "_e", "_g", "_facets")

    def __init__(self, gens, dim):
        if any(len(ints) != dim for _, ints in gens):
            raise ValueError("span vector of wrong dimension")
        k, den = len(gens), lcm(*[d for d, _ in gens])
        cols = [ints if d == den else [a * (den // d) for a in ints] for d, ints in gens]
        pivots, rows = _reduced([[col[j] for col in cols] + [0] * j + [den] + [0] * (dim - j - 1)
                                 for j in range(dim)])
        self.k, self.rank = k, bisect_left(pivots, k)
        self._pivots = tuple(pivots[:self.rank])
        self.independent = self.rank == len({g for g in gens if any(g[1])})
        # row i < r of E is row i's E part over its pivot entry; the equation
        # rows below are only tested for zero, so they keep their scale
        e_den, scales = _pivot_scales(rows, self._pivots)
        scales += [1] * (dim - self.rank)
        e_rows = []
        for row, scale in zip(rows, scales):
            support = tuple(j for j in range(dim) if row[k + j])
            e_rows.append((support, tuple(row[k + j] * scale for j in support)))
        self._e = e_den, e_rows, dim
        self._g = *Mat._of_cols(den, cols, dim).scaled(), k
        self._gens, self._facets = gens, {}

    def _y(self, v):
        """(q, the integers q y) for the coordinates y of the scaled v on the
        pivot generators, or None if v is off the span."""
        den, w = _sparse_apply(*self._e, v)
        return None if any(w[self.rank:]) else (den, w[:self.rank])

    def coordinates(self, v):
        """The scaled x of length k, free variables zero, with G x = v, or
        None if the scaled v is off the span."""
        y = self._y(v)
        if y is None:
            return None
        x = [0] * self.k
        for p, a in zip(self._pivots, y[1]):
            x[p] = a
        x = (y[0], x)
        return x if scaled_equal(_sparse_apply(*self._g, x), v) else None

    def _facets_of(self, hull):
        """The hull's facets (a, b), a.y <= b, the cone's (b = 0) first, or
        the cone's normals n, n.y <= 0, enumerated once."""
        facets = self._facets.get(hull)
        if facets is None:
            try:
                facets = self._enumerate(hull)
            except SearchBudgetExceeded as exc:
                facets = str(exc)
            self._facets[hull] = facets
        if isinstance(facets, str):
            raise SearchBudgetExceeded(facets)
        return facets

    def _enumerate(self, hull):
        r = self.rank
        images = [self._y(g) for g in self._gens]  # y(g) = ys / q, as g is in the span
        if not hull:
            return tuple(_pointed_cone_rays([ys for _, ys in images], r, FACET_STEP_BUDGET))
        normals = [ys + [q] for q, ys in images] + [[0] * r + [1]]
        rays = _pointed_cone_rays(normals, r + 1, FACET_STEP_BUDGET)
        # the cone's facets (b = 0) first: a point outside it leaves early
        return tuple(sorted(((ray[:-1], -ray[-1]) for ray in rays if any(ray[:-1])),
                            key=lambda f: f[1] > 0))

    def gauge(self, v):
        """The gauge of the scaled v on the hull, as an integer ratio (p, q),
        q > 0, or INFINITY: the largest a.y / b over the facets with b > 0,
        compared by cross-multiplication, and INFINITY off the span or
        outside a facet with b = 0; on a simplex, the sum of the coordinates
        when none is negative.  A gauge is a function of the set, so it is
        the value the ambient facets (`dd_v_to_h`) give."""
        facets = None if self.independent else self._facets_of(True)
        y = self._y(v)
        if y is None:
            return INFINITY
        den, ys = y
        if facets is None:
            return INFINITY if min(ys, default=0) < 0 else (sum(ys), den)
        best, best_b = 0, 1
        for a, b in facets:
            value = sum(map(mul, a, ys))
            if not b:
                if value > 0:
                    return INFINITY
            elif value * best_b > best * b:
                best, best_b = value, b
        return best, best_b * den

    def cone_member(self, v):
        """Whether the scaled v is in the cone of the generators."""
        if self.independent:
            y = self._y(v)
            return y is not None and min(y[1], default=0) >= 0
        normals = self._facets_of(False)
        y = self._y(v)
        return y is not None and all(sum(map(mul, n, y[1])) <= 0 for n in normals)


def gauge(polytope, x):
    """Minkowski functional of the subconvex hull at the scaled x, as one
    Fraction; INFINITY outside its cone.

    Equals min{sum c_i : x = sum c_i g_i, c_i >= 0} whenever that program is
    feasible (facet ratios and the LP have the same optimum for a compact
    convex set containing 0).  Raises SearchBudgetExceeded when the facet
    enumeration overruns FACET_STEP_BUDGET."""
    if len(x[1]) != polytope.dim:
        raise ValueError("point of wrong dimension")
    ratio = _Span(polytope.generators, polytope.dim).gauge(x)
    return ratio if ratio is INFINITY else Fraction(*ratio)


def cone_member(gens, x):
    """Exact membership of the scaled x in the convex cone spanned by the
    scaled gens."""
    return _Span(tuple(gens), len(x[1])).cone_member(x)


# ---------------------------------------------------------------------------
# subspace restrictions


def _span_frame(span_vectors, dim):
    """(pivot columns P, integer rows R): r rows with row space span(Z), row i
    positive at pivot i and zero at every other pivot, the `_reduced` rows of
    the integer vectors; x = yR is one-to-one from Q^r onto span(Z), and
    x -> x_P from span(Z) onto Q^r.

    The producers pass the pair closure's echelon rows (positive leading
    entries, each row zero at the earlier rows' leading columns), whose
    insertion eliminates nothing, so that only the back-substitution runs.
    Pivot column k of R is d_k e_k, d_k > 0, and the columns before it are
    zero from row k on, so the first independent normals of a restriction,
    the negated columns (the simplex's t-normal -e_(r+1) right after them),
    are the -e_k: its double description starts from the orthant."""
    if any(len(v) != dim for v in span_vectors):
        raise ValueError("span vector of wrong dimension")
    return _reduced(span_vectors)


def cone_restriction(span_vectors):
    """Convex-cone generators of span(Z) ∩ Q+^m, Z given by scaled vectors:
    its extreme rays, primitive, sorted and scaled (d = 1).  In the span's
    coordinates y, x_i >= 0 is the normal -R[:, i] and {y : yR >= 0} is
    pointed, as R has full row rank.  y -> yR is linear and one-to-one, so it
    maps that cone's extreme rays onto those of the intersection: lifted
    once and made primitive, they are the ambient ones."""
    if not span_vectors:
        return []
    rows = _span_frame([ints for _, ints in span_vectors], len(span_vectors[0][1]))[1]
    rays = _pointed_cone_rays([[-a for a in col] for col in zip(*rows)], len(rows))
    return [(1, ray) for ray in _lifted(rays, rows)]


PRODUCT = "PRODUCT"
SCALED = "SCALED"


def simplex_restriction(span_vectors, family, n1, n2):
    """Vertex generators of span(Z) ∩ (Delta^n1 x Delta^n2) (PRODUCT) or of
    span(Z) ∩ 2*Delta^(n1+n2) (SCALED), Z given by scaled vectors, as a
    PcaPolytope (the zero vertex left implicit).  In the span's coordinates,
    as in `cone_restriction`, the polytope homogenizes to the pointed cone of
    (y, t) with normals (-R[:, i], 0), (0, -1) and (R's column sum over a
    block, -bound), in this order, which starts the double description
    from the orthant (`_span_frame`).  It is bounded, so every extreme ray
    has t > 0, and the yR / t are the vertices of the ambient double
    description, as y -> yR is linear and one-to-one.  The vertices are
    sorted as rationals, by their integers over one common denominator."""
    dim = n1 + n2
    blocks = {PRODUCT: ((0, n1, 1), (n1, dim, 1)), SCALED: ((0, dim, 2),)}.get(family)
    if blocks is None:
        raise ValueError(f"unknown constraint family {family!r}")
    rows = _span_frame([ints for _, ints in span_vectors], dim)[1]
    r, cols = len(rows), list(zip(*rows))
    normals = [[-a for a in col] + [0] for col in cols] + [[0] * r + [-1]]
    normals += [[*map(sum, zip(*cols[lo:hi])), -bound] for lo, hi, bound in blocks if lo < hi]
    vertices = []
    for ray in _pointed_cone_rays(normals, r + 1):
        if not ray[-1]:
            raise InternalError("simplex intersection must be bounded")
        x = [sum(map(mul, ray, col)) for col in cols]  # map stops at the end of y
        if any(x):
            vertices.append(_lowest_terms((ray[-1], x)))
    return PcaPolytope(dim, tuple(_sorted_rationally(vertices)))


# ---------------------------------------------------------------------------
# text formats


def _reader(text, source, keyword):
    """A reader whose first line is the header `<keyword> <dim>`, and dim."""
    r = LineReader(text, source)
    line, toks = r.keyword(0, keyword)
    if len(toks) != 2:
        r.error(line, f"expected: {keyword} <dim>")
    return r, r.integer(toks[1], line, minimum=0)


def parse_hrep(text, source="<hrep>"):
    r, dim = _reader(text, source, "hrep")
    ineqs = []
    for line, toks in r.lines[1:]:
        if toks[0] != "ineq":
            r.error(line, f"unexpected directive {toks[0]!r}")
        ineqs.append(r.row(line, toks, dim + 1))
    return HRep(dim, tuple(ineqs))


def hrep_to_text(h):
    lines = [f"hrep {h.dim}"]
    for row in h.ineqs:
        lines.append("ineq " + fmt_vec(row))
    return "\n".join(lines) + "\n"


def parse_vrep(text, source="<vrep>"):
    r, dim = _reader(text, source, "vrep")
    points, directions = [], []
    for line, toks in r.lines[1:]:
        if toks[0] == "point":
            points.append(r.row(line, toks, dim))
        elif toks[0] == "direction":
            directions.append(r.row(line, toks, dim))
        else:
            r.error(line, f"unexpected directive {toks[0]!r}")
    return VRep(dim, tuple(points), tuple(directions))


def vrep_to_text(v):
    lines = [f"vrep {v.dim}"]
    for p in v.points:
        lines.append(("point " + fmt_vec(p)).rstrip())
    for d in v.directions:
        lines.append(("direction " + fmt_vec(d)).rstrip())
    return "\n".join(lines) + "\n"


def parse_pca_polytope(text, source="<pca>"):
    r, dim = _reader(text, source, "pca")
    gens = []
    for line, toks in r.lines[1:]:
        if toks[0] != "gen":
            r.error(line, f"unexpected directive {toks[0]!r}")
        g = r.row(line, toks, dim)
        if min(g[1], default=0) < 0:
            r.error(line, "generators must be nonnegative")
        gens.append(g)
    return PcaPolytope(dim, tuple(gens))

