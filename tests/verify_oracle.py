"""The `Fraction` witness checks, kept as the verifier's differential oracle.

`wazz.zigzag.verify_zigzag` runs every check on integer images: generators,
outputs and matrices scaled once, images compared by cross-multiplication.
These are the check functions it replaced, which build one `Fraction` per
entry of every image.  Their products, dot products, gauges, cone tests,
carrier factorizations and word closure go through the entrywise `Fraction`
oracles, so a fault in the integer kernel cannot reach both sides.  The tests
require the same checks in the same order, with the same name, verdict and
detail.

The oracle ends with one check the verifier does not make,
`trace-agreement`, which decides the endpoint traces outright by its own
word closure.  The verifier's other checks imply it (the argument is in
`wazz.zigzag.verify_zigzag`), and the tests hold the verifier to that: a
witness whose endpoint traces differ fails one of its checks.
"""

from collections import namedtuple
from fractions import Fraction

import kernel_oracle
from matvec_oracle import (entrywise_apply, entrywise_dot, fraction_rows, fractions, from_cols,
                           funit, is_nonneg, vneg)
from weights_oracle import scalar_ok
from wazz.automata import SemiringTag
from wazz.formats import fmt_rat, word_text
from wazz.linalg import Lattice, Mat, as_int_vec, hnf, is_integral, lattice_member, scaled
from wazz.polyhedra import INFINITY, PcaPolytope
from wazz.zigzag import (CUBIC, GHAT, CheckResult, Report, SearchBudgetExceeded,
                         _nat_monoid_member)

gauge = kernel_oracle.gauge
cone_member = kernel_oracle.cone_member


def fmt_vec(v):
    return " ".join(map(fmt_rat, v))


def generators(node):
    """A node's generators as `Fraction` tuples."""
    return tuple(map(fractions, node.generators))


def ghat_breach(o, images, mu):
    """The subconvex budget on `Fraction`s: None if o >= 0 and
    o + sum_a mu(images_a) <= 1, else "output" for o < 0, "cone" at the
    first image with an infinite gauge, or the total when it exceeds 1."""
    if o < 0:
        return "output"
    total = o
    for v in images:
        g = mu(v)
        if g is INFINITY:
            return "cone"
        total += g
    return total if total > 1 else None


def first_word_off(functional, start, maps):
    """The word closure on `Fraction` vectors, breadth first, stopped at the
    first basis vector the functional does not annihilate."""
    ech = kernel_oracle.Echelon()
    queue = [((), tuple(map(Fraction, start)))]
    for word, v in queue:
        if ech.add(v):
            if entrywise_dot(functional, v) != 0:
                return word
            queue.extend((word + (i,), entrywise_apply(m, v)) for i, m in enumerate(maps))
    return None


def _span_coordinates(gens, dim):
    k = len(gens)
    g_mat = from_cols(gens, nrows=dim)
    red, pivots, _ = kernel_oracle.rref(Mat(tuple(r + funit(dim, i)
                                                  for i, r in enumerate(fraction_rows(g_mat))),
                                            ncols=k + dim))
    g_pivots = tuple(p for p in pivots if p < k)
    rank = len(g_pivots)
    e_mat = Mat(tuple(r[k:] for r in fraction_rows(red)), ncols=dim)

    def coordinates(v):
        w = entrywise_apply(e_mat, v)
        if any(w[rank:]):
            return None
        x = [Fraction(0)] * k
        for i, p in enumerate(g_pivots):
            x[p] = w[i]
        x = tuple(x)
        return x if entrywise_apply(g_mat, x) == tuple(v) else None

    return coordinates, rank, e_mat


def _never(v):
    return False


_Carrier = namedtuple("_Carrier", "kind_detail member gauge", defaults=(None,))


def _carrier(tag, node):
    gens, dim = generators(node), node.dim
    if node.is_pca and not all(is_nonneg(g) for g in gens):
        return _Carrier("generators must be nonnegative", _never)
    detail = ""
    if node.is_free:
        coordinates, rank, e_mat = _span_coordinates(gens, dim)
        if rank != len(gens):
            detail = "generators are linearly dependent"
        elif node.is_pca and len(gens) != dim:
            detail = "free subconvex carrier needs dim-many generators"
    if node.is_pca:
        if node.is_free and not detail:
            e_rows = fraction_rows(e_mat)
            coords_and_sum = Mat(e_rows + (tuple(map(sum, zip(*e_rows))),), ncols=dim)

            def mu(v):
                *x, total = entrywise_apply(coords_and_sum, v)
                return total if min(x, default=0) >= 0 else INFINITY
        else:
            polytope = PcaPolytope(dim, node.generators)
            mu = lambda v: gauge(polytope, scaled(v))
        return _Carrier(detail, lambda v: (g := mu(v)) is not INFINITY and g <= 1, mu)
    if node.is_free:
        return _Carrier(detail, lambda v: (x := coordinates(v)) is not None
                       and all(scalar_ok(tag, c) for c in x))
    member = _never
    if tag in (SemiringTag.Q, SemiringTag.REAL):
        coordinates = _span_coordinates(gens, dim)[0]
        member = lambda v: coordinates(v) is not None
    elif tag is SemiringTag.NAT and all(is_integral(g) and is_nonneg(g) for g in gens):
        ints = [as_int_vec(g) for g in gens]
        member = lambda v: (is_integral(v) and is_nonneg(v)
                            and _nat_monoid_member(ints, as_int_vec(v)))
    elif tag is SemiringTag.INT and all(is_integral(g) for g in gens):
        lat = hnf([as_int_vec(g) for g in gens], dim=dim) if gens else Lattice(dim, ())
        member = lambda v: lattice_member(v, lat)
    elif tag in (SemiringTag.QPLUS, SemiringTag.RPLUS):
        member = lambda v: cone_member(node.generators, scaled(v))
    return _Carrier("", member)


def _coalgebra_self_map_ok(z, node, carrier):
    if node.is_pca and carrier.gauge is None:
        return False, "carrier generators must be nonnegative"
    coalg, out = node.coalgebra, fractions(node.coalgebra.out)
    for g in generators(node):
        o = entrywise_dot(out, g)
        if z.functor == GHAT and node.is_pca:
            breach = ghat_breach(o, (entrywise_apply(m, g) for m in coalg.trans),
                                 carrier.gauge)
            if breach == "output":
                return False, f"negative output weight at generator {fmt_vec(g)}"
            if breach == "cone":
                return False, f"letter image of {fmt_vec(g)} leaves the carrier cone"
            if breach is not None:
                return False, f"budget {fmt_rat(breach)} exceeds 1 at generator {fmt_vec(g)}"
        else:
            if not scalar_ok(z.tag, o):
                return False, f"output weight {fmt_rat(o)} outside the semiring"
            for m in coalg.trans:
                if not carrier.member(entrywise_apply(m, g)):
                    return False, f"transition image of {fmt_vec(g)} leaves the carrier"
    return True, ""


def _morphism_carrier_ok(mor, src, member):
    for g in generators(src):
        if not member(entrywise_apply(mor.matrix, g)):
            return False, f"image of generator {fmt_vec(g)} not in target carrier"
    return True, ""


def _morphism_square_ok(mor, src, dst):
    f, c_src, c_dst = mor.matrix, src.coalgebra, dst.coalgebra
    out_src, out_dst = fractions(c_src.out), fractions(c_dst.out)
    for g in generators(src):
        fg = entrywise_apply(f, g)
        if entrywise_dot(out_src, g) != entrywise_dot(out_dst, fg):
            return False, f"output weight changes along generator {fmt_vec(g)}"
        for a, m_src, m_dst in zip(c_src.alphabet, c_src.trans, c_dst.trans):
            if entrywise_apply(f, entrywise_apply(m_src, g)) != entrywise_apply(m_dst, fg):
                return False, f"letter {a!r} square fails at generator {fmt_vec(g)}"
    return True, ""


def _relating_ok(element, node, member, endpoint, side):
    if element is None or len(element) != node.dim:
        return False, "source node lacks a relating element"
    if not member(element):
        return False, "relating element outside the carrier"
    if endpoint is not None and element != endpoint:
        return False, f"{side} endpoint does not match its relating element"
    return True, ""


def verify_zigzag(z):
    checks = []

    def add(name, ok, detail=""):
        checks.append(CheckResult(name, bool(ok), detail))

    def add_guarded(name, check, *args):
        try:
            ok, detail = check(*args)
        except SearchBudgetExceeded as exc:
            ok, detail = False, str(exc)
        add(name, ok, detail)

    nodes = z.nodes
    n = len(nodes)
    shape_ok = n >= 3 and n % 2 == 1
    incoming = {i: [] for i in range(n)}
    outgoing = {i: [] for i in range(n)}
    seen_edges = set()
    for k, mor in enumerate(z.morphisms):
        if not (0 <= mor.src < n and 0 <= mor.dst < n and abs(mor.src - mor.dst) == 1):
            shape_ok = False
            continue
        seen_edges.add((min(mor.src, mor.dst), max(mor.src, mor.dst)))
        outgoing[mor.src].append(k)
        incoming[mor.dst].append(k)
        expect_rows = nodes[mor.dst].dim
        expect_cols = nodes[mor.src].dim
        if mor.matrix.nrows != expect_rows or mor.matrix.ncols != expect_cols:
            shape_ok = False
    if len(seen_edges) != n - 1 or len(z.morphisms) != n - 1:
        shape_ok = False
    sources = [i for i in range(n) if outgoing[i] and not incoming[i]]
    sinks = [i for i in range(n) if incoming[i] and not outgoing[i]]
    if sorted(sources + sinks) != list(range(n)):
        shape_ok = False
    x1, x2 = map(fractions, z.endpoints)
    if len(x1) != nodes[0].dim or len(x2) != nodes[-1].dim:
        shape_ok = False
    indices = [i for i, _ in z.relating]
    if len(set(indices)) != len(indices):
        shape_ok = False
    if z.functor == GHAT and z.tag is not SemiringTag.PCA:
        shape_ok = False
    if z.functor == CUBIC and z.tag is SemiringTag.PCA:
        shape_ok = False
    if any(node.coalgebra.alphabet != z.alphabet for node in nodes):
        shape_ok = False
    add("shape", shape_ok,
        "" if shape_ok else "not an alternating chain of adjacent morphisms")
    if not shape_ok:
        return Report(False, checks)

    carriers = [_carrier(z.tag, node) for node in nodes]
    for i, node in enumerate(nodes):
        detail = carriers[i].kind_detail
        if not detail and i in sinks and not node.is_free:
            detail = "nodes with incoming arrows must be free"
        if not detail and z.functor == GHAT and not node.is_pca:
            detail = "subconvex witnesses need subconvex carriers"
        add(f"node-kind[{i}]", not detail, detail)
        add_guarded(f"node-coalgebra[{i}]", _coalgebra_self_map_ok, z, node, carriers[i])

    for k, mor in enumerate(z.morphisms):
        src, dst = nodes[mor.src], nodes[mor.dst]
        add_guarded(f"morphism-carrier[{k}]", _morphism_carrier_ok, mor, src,
                    carriers[mor.dst].member)
        add(f"morphism-square[{k}]", *_morphism_square_ok(mor, src, dst))

    relating = {i: fractions(v) for i, v in z.relating}
    ends = {0: (x1, "left"), n - 1: (x2, "right")}
    for i in sources:
        add_guarded(f"relating[{i}]", _relating_ok, relating.get(i), nodes[i],
                    carriers[i].member, *ends.get(i, (None, None)))
    for i in sinks:
        if i in relating:
            add(f"relating[{i}]", False, "sink nodes carry no relating element")

    for s in sinks:
        pushed = []
        ok, detail = True, ""
        for k in incoming[s]:
            mor = z.morphisms[k]
            zsrc = relating.get(mor.src)
            if zsrc is None:
                ok, detail = False, "missing relating element upstream"
                break
            pushed.append(entrywise_apply(mor.matrix, zsrc))
        if ok and len(set(pushed)) > 1:
            ok, detail = False, "incoming relating images disagree"
        if ok and s in ends and pushed and pushed[0] != ends[s][0]:
            ok, detail = False, f"chain does not reach the {ends[s][1]} endpoint"
        add(f"chain[{s}]", ok, detail)

    checks.append(trace_agreement(z))
    return Report(all(c.ok for c in checks), checks)


def trace_agreement(z):
    """The endpoint traces compared outright: the difference of the endpoint
    outputs must vanish on the Q word closure of (x1, x2) under the
    block-diagonal endpoint maps.  On failure the detail names the
    shortlex-least separating word."""
    left, right = z.nodes[0].coalgebra, z.nodes[-1].coalgebra
    x1, x2 = map(fractions, z.endpoints)
    word = first_word_off(fractions(left.out) + vneg(fractions(right.out)), x1 + x2,
                          left.paired(right).trans)
    return CheckResult("trace-agreement", word is None, "" if word is None else
                       "endpoint traces differ on word "
                       f'"{word_text(tuple(z.alphabet[i] for i in word), z.alphabet)}"')
