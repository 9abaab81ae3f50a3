"""The double description that recomputed every ray's tight set at every
step, kept as a differential oracle for `wazz.polyhedra._pointed_cone_rays`."""

from wazz.linalg import (Mat, _Echelon, kernel_basis, primitive, solve, unit, vdot,
                         vector, vneg)


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


def pointed_cone_rays(normals, dim):
    """Extreme rays of the pointed cone {x : <a, x> <= 0 for all a}."""
    if dim == 0:
        return []
    base = _initial_simplex(normals, dim)
    base_mat = Mat([normals[i] for i in base])
    rays = [vector(primitive(vneg(solve(base_mat, unit(dim, j)))))
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
