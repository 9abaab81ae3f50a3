"""Differential oracles for `wazz.polyhedra`'s double description.

`pointed_cone_rays` and `cone_rays` are the double description that
recomputed every ray's tight set at every step, kept as an oracle for
`wazz.polyhedra._pointed_cone_rays`; their initial simplex and ray scaling
use the `Fraction` kernel oracles.  `ambient_cone_restriction` and
`ambient_simplex_restriction` are the restrictions that ran the double
description in the ambient coordinates, on the sign rows plus each kernel
equation of the span as a pair of inequalities; they reach the double
description through the `wazz.polyhedra` module, so a test can route it
through `cone_rays` above.

`fraction_simplex_vertices` is `simplex_restriction` as it was when it
built each vertex as a `Fraction` tuple and sorted those: the order its
integer sort must keep, as the witness bytes depend on it.

`dd_h_to_v` and `dd_v_to_h` are the conversions `wazz polytope` ran in the
ambient coordinates: the lineality is the `Fraction` kernel of the
constraint matrix, and each lineality vector enters the double description
as a pair of opposite normals.  They run on `Fraction` rows and take and
give the scaled `HRep` and `VRep` of `wazz.polyhedra`, converted at their
boundary."""

from fractions import Fraction

from wazz import polyhedra
from wazz.linalg import Mat, is_zero
from wazz.polyhedra import InternalError, PcaPolytope, PRODUCT, SCALED

from matvec_oracle import (fractions, funit, hrep, ineq_pairs, vdot, vector, vneg, vrep, vscale,
                           zeros)

from kernel_oracle import Echelon, kernel_basis, primitive, solve


def _initial_simplex(normals, dim):
    """Indices of `dim` linearly independent normals (requires full rank)."""
    ech = Echelon()
    chosen = []
    for i, a in enumerate(normals):
        if ech.add(a):
            chosen.append(i)
            if len(chosen) == dim:
                return chosen
    raise ValueError("constraint matrix does not have full rank")


def pointed_cone_rays(normals, dim):
    """Extreme rays of the pointed cone {x : <a, x> <= 0 for all a}."""
    if dim == 0:
        return []
    base = _initial_simplex(normals, dim)
    base_mat = Mat([normals[i] for i in base])
    rays = [vector(primitive(vneg(solve(base_mat, funit(dim, j)))))
            for j in range(dim)]
    processed = [normals[i] for i in base]
    for i, a in enumerate(normals):
        if i in base:
            continue
        values = {r: vdot(a, r) for r in rays}
        inside = [r for r in rays if values[r] < 0]
        tight = [r for r in rays if values[r] == 0]
        violating = [r for r in rays if values[r] > 0]
        if violating:
            tight_sets = {r: frozenset(k for k, c in enumerate(processed)
                                       if vdot(c, r) == 0) for r in rays}
            fresh = set()
            for r_in in inside:
                for r_out in violating:
                    common = tight_sets[r_in] & tight_sets[r_out]
                    adjacent = not any(common <= tight_sets[r3]
                                       for r3 in rays if r3 is not r_in and r3 is not r_out)
                    if adjacent:
                        new = vsub_scaled(r_in, r_out, values[r_out], values[r_in])
                        fresh.add(vector(primitive(new)))
            fresh -= set(inside) | set(tight)
            rays = inside + tight + sorted(fresh)
        processed.append(a)
    return sorted(set(rays))


def vsub_scaled(r_in, r_out, v_out, v_in):
    """v_out * r_in - v_in * r_out; lands on the hyperplane between them."""
    return tuple(v_out * a - v_in * b for a, b in zip(r_in, r_out))


def cone_rays(normals, dim):
    """(lineality basis, extreme rays of the pointed part) of {x : Ax <= 0}."""
    mat = Mat(tuple(normals), ncols=dim)
    lineality = kernel_basis(mat)
    full = list(normals)
    for l in lineality:
        full.append(l)
        full.append(vneg(l))
    rays = pointed_cone_rays(full, dim)
    return lineality, rays


def subspace_equations(span_vectors, dim):
    """Normals whose common kernel is the span of the given vectors."""
    if not span_vectors:
        return [funit(dim, i) for i in range(dim)]
    return kernel_basis(Mat(tuple(span_vectors), ncols=dim))


def _with_equations(ineqs, normals):
    out = list(ineqs)
    for n in normals:
        out.append((n, Fraction(0)))
        out.append((vneg(n), Fraction(0)))
    return out


def ambient_cone_restriction(span_vectors):
    """Convex-cone generators of span(Z) ∩ Q+^m, Z given by scaled vectors:
    the extreme rays of the intersection, which is pointed because it lies
    in the orthant, primitive, sorted and scaled."""
    if not span_vectors:
        return []
    span_vectors = [fractions(v) for v in span_vectors]
    dim = len(span_vectors[0])
    system = _with_equations([(vneg(funit(dim, i)), Fraction(0)) for i in range(dim)],
                             subspace_equations(span_vectors, dim))
    return [(1, r) for r in sorted({primitive(d) for d in polyhedra._cone_generators(
        [a for a, _ in system], dim)})]


def ambient_simplex_restriction(span_vectors, family, n1, n2):
    """Vertex generators of span(Z) ∩ (Delta^n1 x Delta^n2) (PRODUCT) or of
    span(Z) ∩ 2*Delta^(n1+n2) (SCALED), Z given by scaled vectors, as a
    PcaPolytope whose vertices are sorted as `Fraction` tuples.

    The intersection is bounded, so the double description yields points
    only; the zero vertex is dropped (it is implicit in every PcaPolytope).
    """
    dim = n1 + n2
    ineqs = [(vneg(funit(dim, i)), Fraction(0)) for i in range(dim)]
    if family == PRODUCT:
        ineqs.append((vector([1] * n1 + [0] * n2), Fraction(1)))
        ineqs.append((vector([0] * n1 + [1] * n2), Fraction(1)))
    elif family == SCALED:
        ineqs.append((vector([1] * dim), Fraction(2)))
    else:
        raise ValueError(f"unknown constraint family {family!r}")
    ineqs = _with_equations(ineqs, subspace_equations([fractions(v) for v in span_vectors], dim))
    if dim == 0:
        return PcaPolytope(0, ())
    v = polyhedra.dd_h_to_v(hrep(dim, ineqs))
    if v.directions:
        raise InternalError("simplex intersection must be bounded")
    gens = tuple(p for p in v.points if any(p[1]))
    return PcaPolytope(dim, gens)


def fraction_simplex_vertices(span_vectors, family, n1, n2):
    """The vertices of `simplex_restriction(span_vectors, family, n1, n2)`
    by its own span frame and double description, each built as `Fraction`s
    y R / t and the list sorted as `Fraction` tuples."""
    dim = n1 + n2
    blocks = {PRODUCT: ((0, n1, 1), (n1, dim, 1)), SCALED: ((0, dim, 2),)}[family]
    rows = polyhedra._span_frame([ints for _, ints in span_vectors], dim)[1]
    r, cols = len(rows), list(zip(*rows))
    normals = [[-a for a in col] + [0] for col in cols]
    normals += [[*map(sum, zip(*cols[lo:hi])), -bound] for lo, hi, bound in blocks if lo < hi]
    normals.append([0] * r + [-1])
    vertices = []
    for ray in polyhedra._pointed_cone_rays(normals, r + 1):
        x = [sum(a * b for a, b in zip(ray, col)) for col in cols]
        if any(x):
            vertices.append(tuple(Fraction(a, ray[-1]) for a in x))
    return sorted(vertices)


def _ambient_cone_generators(normals, dim):
    """Conic generators of {x : Ax <= 0}: both signs of each lineality basis
    vector, and the extreme rays of the cone with those as extra normals."""
    lineality = kernel_basis(Mat(tuple(normals), ncols=dim))
    both_ways = [d for l in lineality for d in (l, vneg(l))]
    rays = polyhedra._pointed_cone_rays(list(normals) + both_ways, dim)
    return sorted(map(vector, rays)) + both_ways


def dd_h_to_v(h):
    """Vertices and directions of an H-polyhedron (Minkowski direction)."""
    ineqs = ineq_pairs(h)
    if h.dim == 0:
        feasible = all(b >= 0 for _, b in ineqs)
        return vrep(0, ((),) if feasible else ())
    normals = [tuple(a) + (-b,) for a, b in ineqs]
    normals.append(zeros(h.dim) + (Fraction(-1),))
    points, directions = [], []
    for r in _ambient_cone_generators(normals, h.dim + 1):  # lineality lies in t = 0
        if r[-1] > 0:
            points.append(vscale(1 / r[-1], r[:-1]))
        else:
            directions.append(vector(primitive(r[:-1])))
    if not points:
        return vrep(h.dim, ())
    return vrep(h.dim, sorted(set(points)), sorted(set(directions)))


def dd_v_to_h(v):
    """Facet inequalities of a V-polyhedron, via the polar cone."""
    if v.dim == 0:
        return hrep(0, ()) if v.points else hrep(0, (((), Fraction(-1)),))
    if v.is_empty:
        return hrep(v.dim, ((zeros(v.dim), Fraction(-1)),))
    gens = [fractions(p) + (Fraction(1),) for p in v.points]
    gens += [fractions(d) + (Fraction(0),) for d in v.directions]
    ineqs = set()
    for r in _ambient_cone_generators(gens, v.dim + 1):
        if not is_zero(r[:-1]):
            scaled = primitive(tuple(r[:-1]) + (-r[-1],))
            ineqs.add((vector(scaled[:-1]), Fraction(scaled[-1])))
    return hrep(v.dim, sorted(ineqs))
