"""Exact rational polyhedra: double description, gauges, restrictions.

Polyhedra are handled homogeneously: a polyhedron {x : Ax <= b} lifts to the
cone {(x,t) : Ax - tb <= 0, t >= 0}, whose extreme rays with positive last
coordinate are the vertices and the rest the directions.  The double
description runs on pointed cones only; lineality is split off first via the
kernel of the constraint matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import (Mat, _Echelon, is_nonneg, is_zero, kernel_basis, primitive,
                     rref, unit, vdot, vector, vneg, vscale, zeros)


class InternalError(Exception):
    """A guarantee of the construction failed: a bug, not a property of the input."""


class _Infinity:
    """Symbolic infinite gauge value; compares unequal to every rational."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


@dataclass(frozen=True)
class HRep:
    """Finite intersection of half-spaces <x, normal> <= bound."""

    dim: int
    ineqs: tuple

    def __post_init__(self):
        object.__setattr__(self, "ineqs",
                           tuple((vector(a), Fraction(b)) for a, b in self.ineqs))
        for a, _ in self.ineqs:
            if len(a) != self.dim:
                raise ValueError("normal of wrong dimension")

    def member(self, x):
        if len(x) != self.dim:
            raise ValueError("point of wrong dimension")
        return all(vdot(a, x) <= b for a, b in self.ineqs)


@dataclass(frozen=True)
class VRep:
    """Convex hull of points plus conic hull of directions.

    A VRep with no points denotes the empty polyhedron; the set is bounded
    exactly when there are no directions.
    """

    dim: int
    points: tuple
    directions: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(vector(p) for p in self.points))
        object.__setattr__(self, "directions",
                           tuple(vector(d) for d in self.directions))
        for v in self.points + self.directions:
            if len(v) != self.dim:
                raise ValueError("generator of wrong dimension")

    @property
    def is_empty(self):
        return not self.points

    @property
    def is_bounded(self):
        return not self.directions


@dataclass(frozen=True)
class PcaPolytope:
    """Subconvex hull {sum c_i g_i : c_i >= 0, sum c_i <= 1} of nonnegative
    generators; always contains 0."""

    dim: int
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators",
                           tuple(vector(g) for g in self.generators))
        for g in self.generators:
            if len(g) != self.dim:
                raise ValueError("generator of wrong dimension")
            if not is_nonneg(g):
                raise ValueError("generators must be nonnegative")


def canonical_ineq(normal, bound):
    """Scale an inequality by a positive rational to coprime integers."""
    scaled = primitive(tuple(normal) + (bound,))
    return (vector(scaled[:-1]), Fraction(scaled[-1]))


# ---------------------------------------------------------------------------
# double description


def _initial_simplex(normals, dim):
    """Indices of `dim` linearly independent normals (requires full rank)."""
    ech = _Echelon()
    chosen = []
    for i, a in enumerate(normals):
        if ech.add(a):
            chosen.append(i)
            if len(chosen) == dim:
                return chosen
    raise ValueError("constraint matrix does not have full rank")


def _pointed_cone_rays(normals, dim):
    """Extreme rays of the pointed cone {x : <a, x> <= 0 for all a}.

    Incremental double description (Fukuda & Prodon 1996).  Normals are
    scaled to primitive integers, which changes no sign and no primitive ray.
    Each ray carries the set of processed constraints tight at it as an int
    bitmask (bit k for normals[k]).  The masks stay exact without being
    recomputed: a ray built from r_in (value < 0) and r_out (value > 0) is
    tight at an earlier constraint exactly when both parents are, because
    both enter with a positive coefficient and every earlier value is <= 0.
    Two rays are adjacent when no third ray is tight wherever both are; when
    fewer than dim - 2 constraints are common, the face they span has
    dimension above 2 and so holds a third ray, and the scan is skipped.
    """
    if dim == 0:
        return []
    normals = [primitive(a) for a in normals]
    base = _initial_simplex(normals, dim)
    # the rays of {x : Bx <= 0} are the columns of -B^-1, read off rref[B | I]
    red, _, _ = rref(Mat([normals[k] + unit(dim, j) for j, k in enumerate(base)]))
    base_mask = sum(1 << k for k in base)
    rays = {}
    for j, k in enumerate(base):
        ray = primitive(tuple(-row[dim + j] for row in red.rows))
        rays[ray] = base_mask & ~(1 << k)
    base = set(base)
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
        masks = list(rays.values())
        for r_in, m_in, v_in in inside:
            for r_out, m_out, v_out in violating:
                common = m_in & m_out
                if common.bit_count() < dim - 2:
                    continue
                # distinct extreme rays of a pointed cone have distinct masks
                if any(common & m == common for m in masks if m != m_in and m != m_out):
                    continue
                new = tuple(v_out * x - v_in * y for x, y in zip(r_in, r_out))
                kept[primitive(new)] = common | bit
        rays = kept
    return sorted(vector(r) for r in rays)


def cone_rays(normals, dim):
    """(lineality basis, extreme rays of the pointed part) of {x : Ax <= 0}."""
    mat = Mat(tuple(normals), ncols=dim)
    lineality = kernel_basis(mat)
    full = list(normals)
    for l in lineality:
        full.append(l)
        full.append(vneg(l))
    rays = _pointed_cone_rays(full, dim)
    return lineality, rays


def dd_h_to_v(h):
    """Vertices and directions of an H-polyhedron (Minkowski direction)."""
    if h.dim == 0:
        feasible = all(b >= 0 for _, b in h.ineqs)
        return VRep(0, ((),) if feasible else (), ())
    normals = [tuple(a) + (-b,) for a, b in h.ineqs]
    normals.append(zeros(h.dim) + (Fraction(-1),))
    lineality, rays = cone_rays(normals, h.dim + 1)
    points, directions = [], []
    for r in rays:
        t = r[-1]
        if t > 0:
            points.append(vscale(1 / t, r[:-1]))
        else:
            directions.append(vector(primitive(r[:-1])))
    for l in lineality:
        v = l[:-1]
        directions.append(vector(primitive(v)))
        directions.append(vector(primitive(vneg(v))))
    if not points:
        return VRep(h.dim, (), ())
    return VRep(h.dim, tuple(sorted(set(points))), tuple(sorted(set(directions))))


def dd_v_to_h(v):
    """Facet inequalities of a V-polyhedron, via the polar cone."""
    if v.dim == 0:
        return HRep(0, ()) if v.points else HRep(0, (((), Fraction(-1)),))
    if v.is_empty:
        return HRep(v.dim, ((zeros(v.dim), Fraction(-1)),))
    gens = [tuple(p) + (Fraction(1),) for p in v.points]
    gens += [tuple(d) + (Fraction(0),) for d in v.directions]
    lineality, rays = cone_rays(gens, v.dim + 1)
    ineqs = []
    for r in rays:
        normal, bound = r[:-1], -r[-1]
        if not is_zero(normal):
            ineqs.append(canonical_ineq(normal, bound))
    for l in lineality:
        normal, bound = l[:-1], -l[-1]
        if not is_zero(normal):
            ineqs.append(canonical_ineq(normal, bound))
            ineqs.append(canonical_ineq(vneg(normal), -bound))
    return HRep(v.dim, tuple(sorted(set(ineqs))))


def lp_feasible(h):
    """A point of the H-polyhedron h, or None when h is empty: the least point
    `dd_h_to_v` finds, which on a bounded polyhedron is its lexicographic
    minimum.  Nothing in wazz calls it; `bench/tracing.py` looks the name up
    to time it."""
    points = dd_h_to_v(h).points
    return points[0] if points else None


# ---------------------------------------------------------------------------
# gauges

# Bound of the facet caches.  The zigzag and verify of one benchmark pair touch
# at most 7 distinct polytopes; 128 also keeps nearly all the reuse of common
# polytopes across pairs (a ghat-pca pass missed 364 times, against 356
# unbounded and 398 at 32).
FACET_CACHE_SIZE = 128


@lru_cache(maxsize=FACET_CACHE_SIZE)
def _subconvex_facets(polytope):
    """H-form of the subconvex hull (the hull of the generators and 0)."""
    return dd_v_to_h(VRep(polytope.dim, (zeros(polytope.dim),) + polytope.generators, ()))


def gauge(polytope, x):
    """Minkowski functional of the subconvex hull; INFINITY outside its cone.

    Equals min{sum c_i : x = sum c_i g_i, c_i >= 0} whenever that program is
    feasible (facet ratios and the LP have the same optimum for a compact
    convex set containing 0).
    """
    if len(x) != polytope.dim:
        raise ValueError("point of wrong dimension")
    best = Fraction(0)
    for a, b in _subconvex_facets(polytope).ineqs:
        value = vdot(a, x)
        if b == 0:
            if value > 0:
                return INFINITY
        else:
            ratio = value / b
            if ratio > best:
                best = ratio
    return best


def pca_member(polytope, x):
    g = gauge(polytope, x)
    return g is not INFINITY and g <= 1


@lru_cache(maxsize=FACET_CACHE_SIZE)
def _cone_facet_normals(gens, dim):
    """Normals n with cone(gens) = {x : <n, x> <= 0 for all n}."""
    lineality, rays = cone_rays(tuple(gens), dim)
    normals = list(rays)
    for l in lineality:
        normals.append(vector(primitive(l)))
        normals.append(vector(primitive(vneg(l))))
    return tuple(sorted(set(normals)))


def cone_member(gens, x):
    """Exact membership of x in the convex cone spanned by gens."""
    dim = len(x)
    return all(vdot(n, x) <= 0 for n in _cone_facet_normals(tuple(vector(g) for g in gens), dim))


# ---------------------------------------------------------------------------
# subspace restrictions


def subspace_equations(span_vectors, dim):
    """Normals whose common kernel is the span of the given vectors."""
    if not span_vectors:
        return [unit(dim, i) for i in range(dim)]
    return kernel_basis(Mat(tuple(span_vectors), ncols=dim))


def _with_equations(ineqs, normals):
    out = list(ineqs)
    for n in normals:
        out.append((n, Fraction(0)))
        out.append((vneg(n), Fraction(0)))
    return out


def cone_restriction(span_vectors):
    """Convex-cone generators of span(Z) ∩ Q+^m: the extreme rays of the
    intersection, which is pointed because it lies in the orthant."""
    if not span_vectors:
        return []
    dim = len(span_vectors[0])
    system = _with_equations([(vneg(unit(dim, i)), Fraction(0)) for i in range(dim)],
                             subspace_equations(span_vectors, dim))
    lineality, rays = cone_rays([a for a, _ in system], dim)
    out = [vector(r) for r in rays]
    for l in lineality:
        out.append(vector(primitive(l)))
        out.append(vector(primitive(vneg(l))))
    return sorted(set(out))


PRODUCT = "PRODUCT"
SCALED = "SCALED"


def simplex_restriction(span_vectors, family, n1, n2):
    """Vertex generators of span(Z) ∩ (Delta^n1 x Delta^n2) (PRODUCT) or of
    span(Z) ∩ 2*Delta^(n1+n2) (SCALED), as a PcaPolytope.

    The intersection is bounded, so the double description yields points
    only; the zero vertex is dropped (it is implicit in every PcaPolytope).
    """
    dim = n1 + n2
    ineqs = [(vneg(unit(dim, i)), Fraction(0)) for i in range(dim)]
    if family == PRODUCT:
        ineqs.append((vector([1] * n1 + [0] * n2), Fraction(1)))
        ineqs.append((vector([0] * n1 + [1] * n2), Fraction(1)))
    elif family == SCALED:
        ineqs.append((vector([1] * dim), Fraction(2)))
    else:
        raise ValueError(f"unknown constraint family {family!r}")
    ineqs = _with_equations(ineqs, subspace_equations(list(span_vectors), dim))
    if dim == 0:
        return PcaPolytope(0, ())
    v = dd_h_to_v(HRep(dim, tuple(ineqs)))
    if v.directions:
        raise InternalError("simplex intersection must be bounded")
    gens = tuple(p for p in v.points if not is_zero(p))
    return PcaPolytope(dim, gens)


# ---------------------------------------------------------------------------
# text formats


def parse_hrep(text, source="<hrep>"):
    from .formats import LineReader
    r = LineReader(text, source)
    toks = r.next_keyword("hrep")
    if len(toks) != 1:
        r.error("expected: hrep <dim>")
    dim = r.parse_int(toks[0], minimum=0)
    ineqs = []
    while r:
        toks = r.next_tokens()
        if toks[0] != "ineq":
            r.error(f"unexpected directive {toks[0]!r}")
        row = r.parse_rats(toks[1:], dim + 1)
        ineqs.append((row[:dim], row[dim]))
    return HRep(dim, tuple(ineqs))


def hrep_to_text(h):
    from .formats import fmt_vec
    lines = [f"hrep {h.dim}"]
    for a, b in h.ineqs:
        lines.append("ineq " + fmt_vec(tuple(a) + (b,)))
    return "\n".join(lines) + "\n"


def parse_vrep(text, source="<vrep>"):
    from .formats import LineReader
    r = LineReader(text, source)
    toks = r.next_keyword("vrep")
    if len(toks) != 1:
        r.error("expected: vrep <dim>")
    dim = r.parse_int(toks[0], minimum=0)
    points, directions = [], []
    while r:
        toks = r.next_tokens()
        if toks[0] == "point":
            points.append(r.parse_rats(toks[1:], dim))
        elif toks[0] == "direction":
            directions.append(r.parse_rats(toks[1:], dim))
        else:
            r.error(f"unexpected directive {toks[0]!r}")
    return VRep(dim, tuple(points), tuple(directions))


def vrep_to_text(v):
    from .formats import fmt_vec
    lines = [f"vrep {v.dim}"]
    for p in v.points:
        lines.append(("point " + fmt_vec(p)).rstrip())
    for d in v.directions:
        lines.append(("direction " + fmt_vec(d)).rstrip())
    return "\n".join(lines) + "\n"


def parse_pca_polytope(text, source="<pca>"):
    from .formats import LineReader
    r = LineReader(text, source)
    toks = r.next_keyword("pca")
    if len(toks) != 1:
        r.error("expected: pca <dim>")
    dim = r.parse_int(toks[0], minimum=0)
    gens = []
    while r:
        toks = r.next_tokens()
        if toks[0] != "gen":
            r.error(f"unexpected directive {toks[0]!r}")
        g = r.parse_rats(toks[1:], dim)
        if not is_nonneg(g):
            r.error("generators must be nonnegative")
        gens.append(g)
    return PcaPolytope(dim, tuple(gens))


def pca_polytope_to_text(p):
    from .formats import fmt_vec
    lines = [f"pca {p.dim}"]
    for g in p.generators:
        lines.append(("gen " + fmt_vec(g)).rstrip())
    return "\n".join(lines) + "\n"
