"""Zig-zag equivalence witnesses: construction and independent verification.

A witness is a chain of coalgebra nodes connected by morphisms, alternating
between source nodes (outgoing arrows, carrying a relating element) and sink
nodes (incoming arrows, which must have free carriers).  The verifier
re-checks every claim from the witness data alone: carrier memberships by
exact LP / lattice / monoid tests, morphism squares by matrix identities,
and the relating chain by direct evaluation.

Every check runs on integer images.  Each node's generators and output
functional, the relating elements and the endpoints are scaled once to
integers over a common denominator and travel as (d, ints); the letter and
morphism matrices are scaled once by `Mat`.  A check applies matrices with
one integer sum per output entry and compares two sides by
cross-multiplication.  A `Fraction` is built only where a value meets a tag
rule or the subconvex budget, or where it is quoted in a report detail.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .automata import LinearCoalgebra, SemiringTag, pair_submodule
from .formats import LineReader, fmt_rat, fmt_vec, word_text
from .hilbert import nat_restriction
from .linalg import (Lattice, Mat, _clear_denominators, as_int_vec,
                     first_word_off, hnf, is_integral, is_nonneg, lattice_member, rref,
                     scaled_dot, scaled_equal, unit, vector, vneg)
from .pca import ghat_breach, pyramid_extension, reduce_invariant_set
from .polyhedra import (PRODUCT, SCALED, INFINITY, PcaPolytope, cone_member_scaled,
                        cone_restriction, gauge_scaled, simplex_restriction)

FREE_MODULE = "FREE_MODULE"
GENERATED_MODULE = "GENERATED_MODULE"
FREE_PCA = "FREE_PCA"
GENERATED_PCA = "GENERATED_PCA"

KINDS = (FREE_MODULE, GENERATED_MODULE, FREE_PCA, GENERATED_PCA)
CUBIC = "cubic"
GHAT = "ghat"


@dataclass(frozen=True)
class ZigZagNode:
    """A coalgebra node: carrier kind and generators, plus the structure map
    acting on ambient coordinates, an untagged record whose weights only the
    verifier judges."""

    kind: str
    generators: tuple
    coalgebra: LinearCoalgebra

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(vector(g) for g in self.generators))
        if self.kind not in KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        for g in self.generators:
            if len(g) != self.dim:
                raise ValueError("generator of wrong dimension")

    @property
    def dim(self):
        return self.coalgebra.n

    @property
    def is_pca(self):
        return self.kind in (FREE_PCA, GENERATED_PCA)

    @property
    def is_free(self):
        return self.kind in (FREE_MODULE, FREE_PCA)


@dataclass(frozen=True)
class Morphism:
    src: int
    dst: int
    matrix: Mat


@dataclass(frozen=True)
class ZigZag:
    functor: str
    tag: SemiringTag
    alphabet: tuple
    nodes: tuple
    morphisms: tuple
    relating: tuple      # ((node index, element), ...) at source nodes
    endpoints: tuple     # (x1 at node 0, x2 at the last node)

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "morphisms", tuple(self.morphisms))
        object.__setattr__(self, "relating",
                           tuple((i, vector(v)) for i, v in self.relating))
        x1, x2 = self.endpoints
        object.__setattr__(self, "endpoints", (vector(x1), vector(x2)))


# ---------------------------------------------------------------------------
# construction


_CUBIC_TAGS = (SemiringTag.NAT, SemiringTag.INT, SemiringTag.QPLUS, SemiringTag.Q,
               SemiringTag.RPLUS, SemiringTag.REAL, SemiringTag.UNIT)


def _projections(n1, n2):
    p1 = Mat([unit(n1 + n2, i) for i in range(n1)], ncols=n1 + n2)
    p2 = Mat([unit(n1 + n2, n1 + i) for i in range(n2)], ncols=n1 + n2)
    return p1, p2


def _endpoint_node(aut, pca):
    return ZigZagNode(kind=FREE_PCA if pca else FREE_MODULE,
                      generators=tuple(unit(aut.n, i) for i in range(aut.n)),
                      coalgebra=aut.coalgebra)


def cubic_zigzag(aut1, x1, aut2, x2):
    """Span witness for the cubic functor tags: both endpoints receive a
    projection from the restricted pair closure.

    The middle carrier is Z ∩ (S^n1 x S^n2), with generators chosen by the
    tag's properties: the product-of-simplices vertices for the unit
    interval, the N-monoid generators (Hilbert) for NAT, the extreme rays of
    the cone (Minkowski-Weyl) for the other nonnegative tags, and the module
    basis itself for the ring tags.
    """
    if aut1.tag not in _CUBIC_TAGS:
        raise ValueError(f"tag {aut1.tag.value} is not a cubic-pipeline tag")
    basis, paired = pair_submodule(aut1, x1, aut2, x2)
    tag = aut1.tag
    n1, n2, m = aut1.n, aut2.n, aut1.n + aut2.n
    pca = tag is SemiringTag.UNIT
    if pca:
        gens = simplex_restriction(basis, PRODUCT, n1, n2).generators
    elif tag is SemiringTag.NAT:
        lat = hnf([as_int_vec(g) for g in basis], dim=m) if basis else Lattice(m, ())
        gens = nat_restriction(lat)
    elif tag.nonneg:
        gens = cone_restriction(basis)
    else:
        gens = basis
    middle = ZigZagNode(kind=GENERATED_PCA if pca else GENERATED_MODULE,
                        generators=tuple(gens), coalgebra=paired.coalgebra)
    p1, p2 = _projections(n1, n2)
    return ZigZag(
        functor=CUBIC, tag=tag, alphabet=aut1.alphabet,
        nodes=(_endpoint_node(aut1, pca), middle, _endpoint_node(aut2, pca)),
        morphisms=(Morphism(1, 0, p1), Morphism(1, 2, p2)),
        relating=((1, tuple(x1) + tuple(x2)),),
        endpoints=(x1, x2),
    )


def ghat_zigzag(aut1, x1, aut2, x2):
    """Five-node witness for the subconvex functor.

    Pipeline: quotient away invariant zero-output coordinates on both sides,
    pair the quotients over the rationals, restrict the pair space to the
    doubled simplex (the span's middle node), hull each projection with the
    simplex, and enlarge those hulls to free pyramids.

    Each quotient map is a coalgebra morphism, so the quotients have the
    traces of the original pair, and the one pair closure of the quotients
    raises NotEquivalent with the shortlex-least word that separates the
    original pair.
    """
    if aut1.tag is not SemiringTag.PCA or aut2.tag is not SemiringTag.PCA:
        raise ValueError("both automata must carry the subconvex tag")
    _, q1, psi1 = reduce_invariant_set(aut1)
    _, q2, psi2 = reduce_invariant_set(aut2)
    y1, y2 = psi1.apply(x1), psi2.apply(x2)
    zbasis, paired = pair_submodule(q1, y1, q2, y2)
    mid_poly = simplex_restriction(zbasis, SCALED, q1.n, q2.n)
    middle = ZigZagNode(kind=GENERATED_PCA, generators=mid_poly.generators,
                        coalgebra=paired.coalgebra)
    p1, p2 = _projections(q1.n, q2.n)
    free_nodes = []
    for q, proj in ((q1, p1), (q2, p2)):
        hull = list(unit(q.n, i) for i in range(q.n))
        for g in mid_poly.generators:
            img = proj.apply(g)
            if any(img) and img not in hull:
                hull.append(img)
        cert = pyramid_extension(PcaPolytope(q.n, tuple(hull)), q)
        free_nodes.append(ZigZagNode(kind=FREE_PCA, generators=cert.generators,
                                     coalgebra=q.coalgebra))
    return ZigZag(
        functor=GHAT, tag=SemiringTag.PCA, alphabet=aut1.alphabet,
        nodes=(_endpoint_node(aut1, True), free_nodes[0], middle,
               free_nodes[1], _endpoint_node(aut2, True)),
        morphisms=(Morphism(0, 1, psi1), Morphism(2, 1, p1),
                   Morphism(2, 3, p2), Morphism(4, 3, psi2)),
        relating=((0, x1), (2, tuple(y1) + tuple(y2)), (4, x2)),
        endpoints=(x1, x2),
    )


# ---------------------------------------------------------------------------
# verification


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    valid: bool
    checks: list

    def failures(self):
        return [c for c in self.checks if not c.ok]


# Targets a single N-monoid membership search may enter.  Each one costs at
# most one comparison per generator, so an overrun ends a search that could
# otherwise run for as long as the monoid below the target is large.
MONOID_STEP_BUDGET = 300_000


class SearchBudgetExceeded(Exception):
    """A membership search overran its step budget; the verifier reports it
    as a failed check."""


def _nat_monoid_member(gens, v):
    """v in the N-span of nonnegative integer generators.  One generator g is
    decided exactly (v = c g for a natural c); with more, by depth-first
    descent on an explicit stack, largest generators first, which raises
    SearchBudgetExceeded once it would enter more than MONOID_STEP_BUDGET
    targets."""
    if not (is_integral(v) and is_nonneg(v)):
        return False
    gens = sorted({as_int_vec(g) for g in gens if any(g)},
                  key=lambda g: -sum(g))
    target = as_int_vec(v)
    if not any(target):
        return True
    if len(gens) == 1:
        (g,) = gens
        c = sum(target) // sum(g)  # the only candidate, as c g sums to c sum(g)
        return all(c * a == b for a, b in zip(g, target))
    # targets entered once: each one is either on the stack or refuted, since
    # a descent that reaches zero returns at once
    seen = {target}
    stack = [(target, iter(gens))]
    while stack:
        t, untried = stack[-1]
        for g in untried:
            if all(a <= b for a, b in zip(g, t)):
                rest = tuple(b - a for a, b in zip(g, t))
                if not any(rest):
                    return True
                if rest not in seen:
                    if len(seen) == MONOID_STEP_BUDGET:
                        raise SearchBudgetExceeded(
                            f"N-monoid membership search exceeded its budget of "
                            f"{MONOID_STEP_BUDGET} steps")
                    seen.add(rest)
                    stack.append((rest, iter(gens)))
                    break
        else:
            stack.pop()
    return False


def _span_coordinates(gens, dim):
    """The coordinates in the generators, their rank and a matrix E: the
    coordinates are a function taking a scaled vector v to the scaled x with
    G x = v, G having the generators as columns and x's free variables zero
    as in `solve`, or to None if v is outside the span.

    G is factored once: the rref of [G | I] is [R | E] with E G = R, so
    G x = v exactly when E v vanishes below the rank of G, and then x's pivot
    entries are read off E v.  The product G x is checked against v again,
    by cross-multiplication.  When G is invertible, E is its inverse."""
    k = len(gens)
    g_mat = Mat.from_cols(gens, nrows=dim)
    red, pivots, _ = rref(Mat(tuple(r + unit(dim, i) for i, r in enumerate(g_mat.rows)),
                              ncols=k + dim))
    g_pivots = tuple(p for p in pivots if p < k)
    rank = len(g_pivots)
    e_mat = Mat(tuple(r[k:] for r in red.rows), ncols=dim)

    def coordinates(v):
        den, w = e_mat.apply_scaled(v)
        if any(w[rank:]):
            return None
        x = [0] * k
        for i, p in enumerate(g_pivots):
            x[p] = w[i]
        x = (den, x)
        return x if scaled_equal(g_mat.apply_scaled(x), v) else None

    return coordinates, rank, e_mat


def _never(v):
    return False


def _integral(v):
    """The integer vector a scaled vector stands for, or None if it has a
    fractional entry."""
    den, ints = v
    if den == 1:
        return tuple(ints)
    return None if any(a % den for a in ints) else tuple(a // den for a in ints)


# A node's carrier as the verifier sees it: the node-kind failure ("" if the
# generators fit the kind), the membership test on scaled vectors and, for a
# subconvex node with nonnegative generators, the gauge (Minkowski functional)
# of a scaled vector as a Fraction or INFINITY.
_Carrier = namedtuple("_Carrier", "kind_detail member gauge", defaults=(None,))


def _carrier(tag, node):
    """The node's carrier, from its generators checked once and factored at
    most once.

    A free carrier is decided by one factorization: its rank answers
    node-kind, and a well-formed FREE_PCA carrier is the simplex on its
    generators, whose gauge is the sum of the coordinates when none is
    negative.  Any other subconvex carrier, a FREE_PCA one that fails its
    kind check included, is the hull of its generators, gauged by facets.
    A subconvex member test compares the gauge, an integer ratio, with 1 by
    cross-multiplication."""
    gens, dim = node.generators, node.dim
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
            # G is invertible, so E = G^-1: the coordinates E v and their
            # sum come out of one product
            coords_and_sum = Mat(e_mat.rows + (tuple(map(sum, zip(*e_mat.rows))),), ncols=dim)

            def ratio(v):
                den, (*x, total) = coords_and_sum.apply_scaled(v)
                return (total, den) if min(x, default=0) >= 0 else INFINITY
        else:
            polytope = PcaPolytope(dim, gens)

            def ratio(v):
                r = gauge_scaled(polytope, v[1])
                return r if r is INFINITY else (r[0], r[1] * v[0])

        def mu(v):
            r = ratio(v)
            return r if r is INFINITY else Fraction(*r)

        return _Carrier(detail, lambda v: (r := ratio(v)) is not INFINITY and r[0] <= r[1], mu)
    if node.is_free:
        return _Carrier(detail, lambda v: (x := coordinates(v)) is not None
                       and all(tag.scalar_ok(Fraction(c, x[0])) for c in x[1]))
    # generated module, by tag
    member = _never
    if tag in (SemiringTag.Q, SemiringTag.REAL):
        coordinates = _span_coordinates(gens, dim)[0]
        member = lambda v: coordinates(v) is not None
    elif tag is SemiringTag.NAT and all(is_integral(g) and is_nonneg(g) for g in gens):
        member = lambda v: (t := _integral(v)) is not None and _nat_monoid_member(gens, t)
    elif tag is SemiringTag.INT and all(is_integral(g) for g in gens):
        lat = hnf([as_int_vec(g) for g in gens], dim=dim) if gens else Lattice(dim, ())
        member = lambda v: (t := _integral(v)) is not None and lattice_member(t, lat)
    elif tag in (SemiringTag.QPLUS, SemiringTag.RPLUS):
        cone = tuple(map(tuple, gens))
        member = lambda v: cone_member_scaled(cone, v[1])
    return _Carrier("", member)


def _coalgebra_self_map_ok(z, node, carrier, gens, out):
    """The structure map sends every generator into the functor at the
    node's carrier; gens and out are the node's generators and output
    functional, scaled."""
    if node.is_pca and carrier.gauge is None:
        return False, "carrier generators must be nonnegative"
    trans = node.coalgebra.trans
    for g, sg in zip(node.generators, gens):
        o = Fraction(*scaled_dot(out, sg))
        images = (m.apply_scaled(sg) for m in trans)
        if z.functor == GHAT and node.is_pca:
            breach = ghat_breach(o, images, carrier.gauge)
            if breach == "output":
                return False, f"negative output weight at generator {fmt_vec(g)}"
            if breach == "cone":
                return False, f"letter image of {fmt_vec(g)} leaves the carrier cone"
            if breach is not None:
                return False, f"budget {fmt_rat(breach)} exceeds 1 at generator {fmt_vec(g)}"
        else:
            if not z.tag.scalar_ok(o):
                return False, f"output weight {fmt_rat(o)} outside the semiring"
            if not all(map(carrier.member, images)):
                return False, f"transition image of {fmt_vec(g)} leaves the carrier"
    return True, ""


def _morphism_carrier_ok(mor, src, member, gens):
    """The morphism sends every (scaled) source generator into the target
    carrier."""
    for g, sg in zip(src.generators, gens):
        if not member(mor.matrix.apply_scaled(sg)):
            return False, f"image of generator {fmt_vec(g)} not in target carrier"
    return True, ""


def _morphism_square_ok(mor, src, dst, gens, out_src, out_dst):
    """The morphism commutes with the output weights and the letter maps on
    every (scaled) source generator."""
    f, c_src, c_dst = mor.matrix, src.coalgebra, dst.coalgebra
    for g, sg in zip(src.generators, gens):
        fg = f.apply_scaled(sg)
        (p, q), (r, s) = scaled_dot(out_src, sg), scaled_dot(out_dst, fg)
        if p * s != r * q:
            return False, f"output weight changes along generator {fmt_vec(g)}"
        for a, m_src, m_dst in zip(c_src.alphabet, c_src.trans, c_dst.trans):
            if not scaled_equal(f.apply_scaled(m_src.apply_scaled(sg)), m_dst.apply_scaled(fg)):
                return False, f"letter {a!r} square fails at generator {fmt_vec(g)}"
    return True, ""


def _relating_ok(element, node, member, endpoint, side):
    """A source node's (scaled) relating element lies in its carrier and, at
    an end of the chain, is that side's (scaled) endpoint."""
    if element is None or len(element[1]) != node.dim:
        return False, "source node lacks a relating element"
    if not member(element):
        return False, "relating element outside the carrier"
    if endpoint is not None and not scaled_equal(element, endpoint):
        return False, f"{side} endpoint does not match its relating element"
    return True, ""


def verify_zigzag(z):
    """Re-check a witness from its stated data; every failure is reported."""
    checks = []

    def add(name, ok, detail=""):
        checks.append(CheckResult(name, bool(ok), detail))

    def add_guarded(name, check, *args):
        """Add a check that tests carrier membership; an overrun search fails it."""
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
    x1, x2 = z.endpoints
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
    gens = [[_clear_denominators(g) for g in node.generators] for node in nodes]
    outs = [_clear_denominators(node.coalgebra.out) for node in nodes]
    for i, node in enumerate(nodes):
        detail = carriers[i].kind_detail
        if not detail and i in sinks and not node.is_free:
            detail = "nodes with incoming arrows must be free"
        if not detail and z.functor == GHAT and not node.is_pca:
            detail = "subconvex witnesses need subconvex carriers"
        add(f"node-kind[{i}]", not detail, detail)
        add_guarded(f"node-coalgebra[{i}]", _coalgebra_self_map_ok, z, node, carriers[i],
                    gens[i], outs[i])

    for k, mor in enumerate(z.morphisms):
        i, j = mor.src, mor.dst
        add_guarded(f"morphism-carrier[{k}]", _morphism_carrier_ok, mor, nodes[i],
                    carriers[j].member, gens[i])
        add(f"morphism-square[{k}]", *_morphism_square_ok(mor, nodes[i], nodes[j], gens[i],
                                                          outs[i], outs[j]))

    relating = {i: _clear_denominators(v) for i, v in z.relating}
    ends = {0: (_clear_denominators(x1), "left"), n - 1: (_clear_denominators(x2), "right")}
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
            pushed.append(mor.matrix.apply_scaled(zsrc))
        if ok and not all(scaled_equal(p, pushed[0]) for p in pushed[1:]):
            ok, detail = False, "incoming relating images disagree"
        if ok and s in ends and pushed and not scaled_equal(pushed[0], ends[s][0]):
            ok, detail = False, f"chain does not reach the {ends[s][1]} endpoint"
        add(f"chain[{s}]", ok, detail)

    # the difference of the endpoint outputs must vanish on the Q word closure
    # of (x1, x2) under the block-diagonal endpoint maps: as strong as
    # comparing traces up to depth n1 + n2, in polynomial time
    left, right = nodes[0].coalgebra, nodes[-1].coalgebra
    word = first_word_off(left.out + vneg(right.out), x1 + x2, left.paired(right).trans)
    add("trace-agreement", word is None, "" if word is None else "endpoint traces differ "
        f'on word "{word_text(tuple(z.alphabet[i] for i in word), z.alphabet)}"')

    return Report(all(c.ok for c in checks), checks)


# ---------------------------------------------------------------------------
# witness file format


def zigzag_to_text(z):
    lines = [f"zigzag {z.functor} {z.tag.value}",
             "alphabet " + " ".join(z.alphabet),
             f"nodes {len(z.nodes)}"]
    for i, node in enumerate(z.nodes):
        lines.append(f"node {i} {node.kind} dim {node.dim} generators {len(node.generators)}")
        for g in node.generators:
            lines.append(fmt_vec(g))
        lines.append(("out " + fmt_vec(node.coalgebra.out)).rstrip())
        for a, m in zip(z.alphabet, node.coalgebra.trans):
            lines.append(f"trans {a}")
            for row in m.transpose().rows:
                lines.append(fmt_vec(row))
    lines.append(f"morphisms {len(z.morphisms)}")
    for mor in z.morphisms:
        lines.append(f"morphism {mor.src} {mor.dst}")
        for row in mor.matrix.transpose().rows:
            lines.append(fmt_vec(row))
    lines.append(f"relating {len(z.relating)}")
    for i, v in z.relating:
        lines.append((f"at {i} " + fmt_vec(v)).rstrip())
    lines.append(("left " + fmt_vec(z.endpoints[0])).rstrip())
    lines.append(("right " + fmt_vec(z.endpoints[1])).rstrip())
    return "\n".join(line for line in lines if line) + "\n"


def _parse_matrix_rows(r, nrows, ncols):
    if ncols == 0:
        # zero-width rows have no text representation; nothing to read
        return Mat([()] * nrows, ncols=0) if nrows else Mat((), ncols=0)
    rows = [r.next_rat_row(ncols) for _ in range(nrows)]
    return Mat(rows, ncols=ncols) if rows else Mat((), ncols=ncols)


def parse_zigzag(text, source="<witness>"):
    r = LineReader(text, source)
    toks = r.next_keyword("zigzag")
    if len(toks) != 2:
        r.error("expected: zigzag <functor> <tag>")
    functor = toks[0]
    if functor not in (CUBIC, GHAT):
        r.error(f"unknown functor {functor!r}")
    try:
        tag = SemiringTag(toks[1])
    except ValueError:
        r.error(f"unknown semiring {toks[1]!r}")
    alphabet = tuple(r.next_keyword("alphabet"))
    if len(set(alphabet)) != len(alphabet) or not alphabet:
        r.error("alphabet must be nonempty and distinct")
    toks = r.next_keyword("nodes")
    count = r.parse_int(toks[0], minimum=1) if len(toks) == 1 else r.error("expected a count")
    nodes = []
    for i in range(count):
        toks = r.next_keyword("node")
        if (len(toks) != 6 or toks[0] != str(i) or toks[2] != "dim"
                or toks[4] != "generators"):
            r.error(f"expected: node {i} <KIND> dim <d> generators <g>")
        kind = toks[1]
        if kind not in KINDS:
            r.error(f"unknown node kind {kind!r}")
        dim = r.parse_int(toks[3], minimum=0)
        ngens = r.parse_int(toks[5], minimum=0)
        gens = [r.next_rat_row(dim) for _ in range(ngens)]
        out = r.parse_rats(r.next_keyword("out"), dim)
        trans = []
        for a in alphabet:
            toks = r.next_keyword("trans")
            if toks != [a]:
                r.error(f"expected transition block for {a!r}")
            trans.append(_parse_matrix_rows(r, dim, dim).transpose())
        coalg = LinearCoalgebra(n=dim, alphabet=alphabet, out=out, trans=tuple(trans))
        nodes.append(ZigZagNode(kind=kind, generators=tuple(gens), coalgebra=coalg))
    toks = r.next_keyword("morphisms")
    mcount = r.parse_int(toks[0], minimum=0) if len(toks) == 1 else r.error("expected a count")
    morphisms = []
    for _ in range(mcount):
        toks = r.next_keyword("morphism")
        if len(toks) != 2:
            r.error("expected: morphism <from> <to>")
        src = r.parse_int(toks[0], minimum=0)
        dst = r.parse_int(toks[1], minimum=0)
        if src >= count or dst >= count:
            r.error("morphism endpoint out of range")
        matrix = _parse_matrix_rows(r, nodes[src].dim, nodes[dst].dim).transpose()
        morphisms.append(Morphism(src, dst, matrix))
    toks = r.next_keyword("relating")
    rcount = r.parse_int(toks[0], minimum=0) if len(toks) == 1 else r.error("expected a count")
    relating = []
    for _ in range(rcount):
        toks = r.next_keyword("at")
        if not toks:
            r.error("expected: at <node> <element>")
        idx = r.parse_int(toks[0], minimum=0)
        if idx >= count:
            r.error("relating node out of range")
        relating.append((idx, r.parse_rats(toks[1:], nodes[idx].dim)))
    left = r.parse_rats(r.next_keyword("left"), nodes[0].dim)
    right = r.parse_rats(r.next_keyword("right"), nodes[-1].dim)
    if r:
        r.error("trailing input after witness")
    return ZigZag(functor=functor, tag=tag, alphabet=alphabet, nodes=tuple(nodes),
                  morphisms=tuple(morphisms), relating=tuple(relating),
                  endpoints=(left, right))
