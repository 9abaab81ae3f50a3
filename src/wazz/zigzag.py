"""Zig-zag equivalence witnesses: construction and independent verification.

A witness is a chain of coalgebra nodes connected by morphisms, alternating
between source nodes (outgoing arrows, carrying a relating element) and sink
nodes (incoming arrows, which must have free carriers).  `cubic_zigzag`
and `ghat_zigzag` write a cospan when the quotient is in the semiring, else
span or five-node: both automata map onto the pair's quotient by its word
functionals when its weights and both maps keep the tag's rules, as they
always do for the ring and field tags.  Otherwise the paper's constructions
are written, a span through the restricted pair closure for the other cubic
tags (`span_zigzag`) and five nodes for the subconvex functor
(`five_node_zigzag`).
The verifier re-checks every claim from the witness data alone: carrier
memberships, morphism squares by matrix identities, and the relating chain
by direct evaluation.  A free node whose generators are positive multiples
of the unit vectors, as every endpoint, pyramid node and cospan sink is,
needs no elimination: its coordinates are one integer scaling per entry,
so no node of a cospan is factored.  Every other node is
decided on one factorization of its generators
(`wazz.polyhedra._Span`), by their unique coordinates when they are
independent and otherwise by the facets of the hull or cone, lattice
reduction or a budgeted N-monoid search.

Every check runs on integers.  Generators, outputs, relating elements and
endpoints are scaled vectors (d, ints) in lowest terms (`wazz.linalg`), and
the matrices are `Mat`s.  Each letter image of a generator and each
morphism image of a source generator is computed once: c times column j of
the matrix for a generator whose one nonzero entry c is at j, as every
generator of an endpoint, a pyramid node or a cospan sink is, and
otherwise one integer sum per entry.  The checks compare two sides by
cross-multiplication, a morphism square row by row with no product vector
built, and coordinates and output weights meet the tag's rules as
integers.  The subconvex budget sums integer ratios, and a failure detail
prints its values from integers: no `Fraction` is built.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from math import lcm
from operator import mul

from .automata import (_TAGS, LinearCoalgebra, SemiringTag, TagViolation, _scalar_rules,
                       check_weights, pair_quotient, pair_submodule)
from .formats import LineReader, block_lines, fmt_ratio, fmt_vec
from .hilbert import nat_restriction
from .linalg import (Lattice, Mat, _concat, _lowest_terms, _selection, hnf, lattice_member,
                     scaled_dot, scaled_equal, unit)
from .pca import ghat_breach, pyramid_extension, reduce_invariant_set
from .polyhedra import (PRODUCT, SCALED, INFINITY, PcaPolytope, SearchBudgetExceeded,
                        _Span, cone_restriction, simplex_restriction)

FREE_MODULE = "FREE_MODULE"
GENERATED_MODULE = "GENERATED_MODULE"
FREE_PCA = "FREE_PCA"
GENERATED_PCA = "GENERATED_PCA"

KINDS = (FREE_MODULE, GENERATED_MODULE, FREE_PCA, GENERATED_PCA)
CUBIC = "cubic"
GHAT = "ghat"


@dataclass(frozen=True)
class ZigZagNode:
    """A coalgebra node: carrier kind and scaled generators, plus the
    structure map acting on ambient coordinates, an untagged record whose
    weights only the verifier judges."""

    kind: str
    generators: tuple
    coalgebra: LinearCoalgebra

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.kind not in KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        for _, ints in self.generators:
            if len(ints) != self.dim:
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
    relating: tuple      # ((node index, scaled element), ...) at source nodes
    endpoints: tuple     # (x1 at node 0, x2 at the last node), scaled

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "morphisms", tuple(self.morphisms))
        object.__setattr__(self, "relating", tuple(self.relating))
        object.__setattr__(self, "endpoints", tuple(self.endpoints))


# ---------------------------------------------------------------------------
# construction


_CUBIC_TAGS = (SemiringTag.NAT, SemiringTag.INT, SemiringTag.QPLUS, SemiringTag.Q,
               SemiringTag.RPLUS, SemiringTag.REAL, SemiringTag.UNIT)
_RING_TAGS = (SemiringTag.INT, SemiringTag.Q, SemiringTag.REAL)  # their witness is a cospan


def _projections(n1, n2):
    return _selection(range(n1), n1 + n2), _selection(range(n1, n1 + n2), n1 + n2)


def _free_node(coalg, pca=False):
    """The free node on the unit vectors, as an endpoint or a cospan's sink."""
    return ZigZagNode(kind=FREE_PCA if pca else FREE_MODULE,
                      generators=tuple(unit(coalg.n, i) for i in range(coalg.n)),
                      coalgebra=coalg)


def _quotient_cospan(functor, aut1, x1, aut2, x2):
    """The cospan A1 -> Q <- A2 onto the pair's quotient by its word
    functionals (`pair_quotient`), or None when it leaves the tag's
    semiring.  It raises NotEquivalent, with the shortlex-least separating
    word, when the traces differ.

    Q is a free node on its unit vectors, so the cospan is a witness exactly
    when Q's output and letter matrices keep the tag's weight rules, the
    subconvex budget for `pca` among them, and each column of h1 and h2,
    the image of a unit vector, lies in the free carrier: for `unit` and
    `pca` nonnegative with a sum within 1, the column rule of `unit`.  Both
    are `check_weights` tests.  The ring and field tags would pass them
    always, so they are not run there: over Z the quotient is free because
    the word functionals span a subgroup of Z^(n1 + n2), and every subgroup
    of a free module over a principal ideal domain is free."""
    h1, h2, quotient = pair_quotient(aut1, x1, aut2, x2)
    tag = aut1.tag
    pca = tag in (SemiringTag.UNIT, SemiringTag.PCA)
    if tag not in _RING_TAGS:
        try:
            check_weights(tag, quotient.out, quotient.trans)
            check_weights(SemiringTag.UNIT if pca else tag, (1, ()), (h1, h2))
        except TagViolation:
            return None
    return ZigZag(
        functor=functor, tag=tag, alphabet=aut1.alphabet,
        nodes=(_free_node(aut1.coalgebra, pca), _free_node(quotient, pca),
               _free_node(aut2.coalgebra, pca)),
        morphisms=(Morphism(0, 1, h1), Morphism(2, 1, h2)),
        relating=((0, x1), (2, x2)),
        endpoints=(x1, x2),
    )


def cubic_zigzag(aut1, x1, aut2, x2):
    """Three-node witness for the cubic functor tags: a cospan when the
    pair's quotient is in the semiring (`_quotient_cospan`), as it always
    is for `int`, `q` and `real`, else the paper's span (`span_zigzag`),
    which always exists.  A pair whose traces differ raises NotEquivalent
    from the quotient's closure."""
    if aut1.tag not in _CUBIC_TAGS:
        raise ValueError(f"tag {aut1.tag.value} is not a cubic-pipeline tag")
    return _quotient_cospan(CUBIC, aut1, x1, aut2, x2) or span_zigzag(aut1, x1, aut2, x2)


def span_zigzag(aut1, x1, aut2, x2):
    """The paper's span witness for `nat`, `qplus`, `rplus` and `unit`: both
    endpoints receive a projection from the restricted pair closure.
    The middle carrier is Z ∩ (S^n1 x S^n2), with generators chosen by the
    tag's properties: the product-of-simplices vertices for the unit
    interval, the N-monoid generators (Hilbert) for NAT and the extreme rays
    of the cone (Minkowski-Weyl) for the other nonnegative tags.
    """
    tag = aut1.tag
    if tag not in _CUBIC_TAGS or tag in _RING_TAGS:
        raise ValueError(f"span_zigzag takes nat, qplus, rplus or unit, not {tag.value}")
    basis, paired = pair_submodule(aut1, x1, aut2, x2)
    n1, n2, m = aut1.n, aut2.n, aut1.n + aut2.n
    pca = tag is SemiringTag.UNIT
    if pca:
        gens = simplex_restriction(basis, PRODUCT, n1, n2).generators
    elif tag is SemiringTag.NAT:
        # the pair closure's lattice basis is already in Hermite normal form
        gens = [(1, g) for g in nat_restriction(Lattice(m, tuple(g for _, g in basis)))]
    else:
        gens = cone_restriction(basis)
    middle = ZigZagNode(kind=GENERATED_PCA if pca else GENERATED_MODULE,
                        generators=tuple(gens), coalgebra=paired)
    p1, p2 = _projections(n1, n2)
    return ZigZag(
        functor=CUBIC, tag=tag, alphabet=aut1.alphabet,
        nodes=(_free_node(aut1.coalgebra, pca), middle, _free_node(aut2.coalgebra, pca)),
        morphisms=(Morphism(1, 0, p1), Morphism(1, 2, p2)),
        relating=((1, _concat(x1, x2)),),
        endpoints=(x1, x2),
    )


def ghat_zigzag(aut1, x1, aut2, x2):
    """Witness for the subconvex functor: a three-node cospan when the
    pair's quotient is in the semiring (`_quotient_cospan`: Q's output plus
    letter mass within 1 at each coordinate, and h1, h2 with nonnegative
    columns of sum within 1), else five nodes (`five_node_zigzag`)."""
    if aut1.tag is not SemiringTag.PCA or aut2.tag is not SemiringTag.PCA:
        raise ValueError("both automata must carry the subconvex tag")
    return (_quotient_cospan(GHAT, aut1, x1, aut2, x2)
            or five_node_zigzag(aut1, x1, aut2, x2))


def five_node_zigzag(aut1, x1, aut2, x2):
    """The paper's five-node witness for the subconvex functor.

    Pipeline: quotient away invariant zero-output coordinates on both sides,
    pair the quotients over the rationals, restrict the pair space to the
    doubled simplex (the span's middle node), hull each projection with the
    simplex, and enlarge those hulls to free pyramids.

    Each quotient map is a coalgebra morphism, so the quotients have the
    traces of the original pair, and the one pair closure of the quotients
    raises NotEquivalent with the shortlex-least word that separates the
    original pair.  The quotient maps delete the dropped coordinates and the
    projections keep one side's, so their images are taken by selection.
    """
    if aut1.tag is not SemiringTag.PCA or aut2.tag is not SemiringTag.PCA:
        raise ValueError("both automata must carry the subconvex tag")
    d1, q1, psi1 = reduce_invariant_set(aut1)
    d2, q2, psi2 = reduce_invariant_set(aut2)
    y1, y2 = (_lowest_terms(psi.apply_scaled(x)) for x, psi in ((x1, psi1), (x2, psi2)))
    basis, paired = pair_submodule(q1, y1, q2, y2)
    mid_poly = simplex_restriction(basis, SCALED, q1.n, q2.n)
    middle = ZigZagNode(kind=GENERATED_PCA, generators=mid_poly.generators, coalgebra=paired)
    gens, n1 = mid_poly.generators, q1.n
    free_nodes = []
    for q, images in ((q1, [_lowest_terms((d, g[:n1])) for d, g in gens]),
                      (q2, [_lowest_terms((d, g[n1:])) for d, g in gens])):
        hull = PcaPolytope(q.n, tuple(unit(q.n, i) for i in range(q.n)) + tuple(images))
        cert = pyramid_extension(hull, q)
        free_nodes.append(ZigZagNode(kind=FREE_PCA, generators=cert.generators,
                                     coalgebra=q.coalgebra))
    p1, p2 = _projections(n1, q2.n)
    return ZigZag(
        functor=GHAT, tag=SemiringTag.PCA, alphabet=aut1.alphabet,
        nodes=(_free_node(aut1.coalgebra, True), free_nodes[0], middle,
               free_nodes[1], _free_node(aut2.coalgebra, True)),
        morphisms=(Morphism(0, 1, psi1), Morphism(2, 1, p1),
                   Morphism(2, 3, p2), Morphism(4, 3, psi2)),
        relating=((0, x1), (2, _concat(y1, y2)), (4, x2)),
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


def _nat_monoid_member(gens, target):
    """The integer vector target in the N-span of nonnegative integer
    generators, by depth-first descent on an explicit stack, largest
    generators first, which raises SearchBudgetExceeded once it would enter
    more than MONOID_STEP_BUDGET targets."""
    if min(target, default=0) < 0:
        return False
    if not any(target):
        return True
    gens = sorted({g for g in gens if any(g)}, key=lambda g: -sum(g))
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
# of a scaled vector as an integer ratio (p, q), q > 0, or INFINITY.
_Carrier = namedtuple("_Carrier", "kind_detail member gauge", defaults=(None,))


def _diagonal(gens, dim):
    """(L, weights) when the dim generators are positive multiples
    c_j = a_j / d_j of the unit vectors e_j, in order: L = lcm(a_j) and
    w_j = d_j L / a_j, so that the coordinates of a scaled v = (e, xs) are
    (e L, [w_j xs_j]).  None for any other list."""
    if len(gens) != dim:
        return None
    for j, (_, ints) in enumerate(gens):
        if ints[j] <= 0 or ints.count(0) != dim - 1:
            return None
    big = lcm(*[ints[j] for j, (_, ints) in enumerate(gens)])
    return big, [d * (big // ints[j]) for j, (d, ints) in enumerate(gens)]


def _diagonal_carrier(tag, pca, big, weights):
    """The free carrier on the generators c_j e_j of `_diagonal`, decided by
    the coordinates (e L, [w_j xs_j]) of v = (e, xs), which are v itself for
    the standard basis: a module's by the tag's scalar rules, a subconvex
    one's, the simplex on the c_j e_j, by the gauge, their sum when none is
    negative and INFINITY otherwise.  These are the values the unique
    coordinates of a `_Span` give."""
    if pca:
        def gauge(v):
            e, xs = v
            if min(xs, default=0) < 0:
                return INFINITY
            return sum(map(mul, weights, xs)), e * big
        return _Carrier("", lambda v: (r := gauge(v)) is not INFINITY and r[0] <= r[1], gauge)
    rules = _scalar_rules(tag)
    return _Carrier("", lambda v: rules(v[0] * big, [w * a for w, a in zip(weights, v[1])]))


def _carrier(tag, node):
    """The node's carrier, from its scaled generators checked once and, unless
    it is free on positive multiples of the unit vectors (`_diagonal`),
    factored once (`_Span`).

    A diagonal free carrier, as every endpoint and pyramid node a producer
    writes is, is decided by one integer scaling per entry
    (`_diagonal_carrier`).  Otherwise the rank answers node-kind.  A
    subconvex carrier is the hull of its generators, gauged by the
    factorization, and a member test compares the gauge, an integer ratio,
    with 1 by cross-multiplication.  A module is decided by the unique
    coordinates and the tag's scalar rules when its distinct nonzero
    generators are independent, as every well-formed free carrier's are,
    and so is every free module and every `q`/`real` one.  A dependent
    generated module falls back on its tag: the cone's facets for
    `qplus`/`rplus`, lattice reduction for `int` and the budgeted search for
    `nat`, which need integral generators, nonnegative ones for `nat`."""
    gens, dim = node.generators, node.dim
    diagonal = node.is_free and _diagonal(gens, dim)
    if diagonal:
        return _diagonal_carrier(tag, node.is_pca, *diagonal)
    if node.is_pca and not all(min(ints, default=0) >= 0 for _, ints in gens):
        return _Carrier("generators must be nonnegative", _never)
    span = _Span(gens, dim)
    detail = ""
    if node.is_free and span.rank != len(gens):
        detail = "generators are linearly dependent"
    elif node.is_free and node.is_pca and len(gens) != dim:
        detail = "free subconvex carrier needs dim-many generators"
    if node.is_pca:
        return _Carrier(detail, lambda v: (r := span.gauge(v)) is not INFINITY and r[0] <= r[1],
                        span.gauge)
    rules = _scalar_rules(tag)
    member = lambda v: (x := span.coordinates(v)) is not None and rules(*x)
    if node.is_free or tag in (SemiringTag.Q, SemiringTag.REAL):
        return _Carrier(detail, member)
    # a generated module of another tag, or with generators its tag rules out, admits nothing
    integral = all(d == 1 for d, _ in gens)
    allowed = {SemiringTag.NAT: integral and all(min(g, default=0) >= 0 for _, g in gens),
               SemiringTag.INT: integral, SemiringTag.QPLUS: True, SemiringTag.RPLUS: True}
    if not allowed.get(tag, False):
        member = _never
    elif span.independent:
        pass  # the unique coordinates decide
    elif tag is SemiringTag.NAT:
        ints = [g for _, g in gens]
        member = lambda v: (t := _integral(v)) is not None and _nat_monoid_member(ints, t)
    elif tag is SemiringTag.INT:
        lat = hnf([g for _, g in gens], dim=dim)
        member = lambda v: (t := _integral(v)) is not None and lattice_member(t, lat)
    else:
        member = span.cone_member
    return _Carrier("", member)


def _columns(m):
    """The columns of the `Mat` m as lists of its integers den * entry,
    zeros included, read in one pass over its sparse rows."""
    nrows = m.nrows
    cols = [[0] * nrows for _ in range(m.ncols)]
    for i, (js, nums) in enumerate(m.sparse):
        for j, a in zip(js, nums):
            cols[j][i] = a
    return cols


def _images(mats, gens, columns):
    """For each scaled generator g = (d, ints) of gens, the products m g with
    the `Mat`s m of mats, each as `Mat.apply_scaled` returns it.  When g has
    exactly one nonzero entry c, at index j, m g is (m.den d, [c x for x in
    column j of m]): every other term of a row's sum is 0, so these are the
    same integers, and no sum is formed.  columns maps the id of each matrix
    of the witness to its denominator and `_columns`, read at its first use;
    every other generator is multiplied out by `Mat.apply_scaled`."""
    out, read = [], None
    for g in gens:
        d, ints = g
        if ints.count(0) != len(ints) - 1:
            out.append([m.apply_scaled(g) for m in mats])
            continue
        if read is None:
            for m in mats:
                if id(m) not in columns:
                    columns[id(m)] = m.den, _columns(m)
            read = [columns[id(m)] for m in mats]
        c = next(filter(None, ints))
        j = ints.index(c)
        out.append([(den * d, [c * x for x in cols[j]]) for den, cols in read])
    return out


def _coalgebra_self_map_ok(z, node, carrier, images):
    """The structure map sends every generator into the functor at the
    node's carrier; images are the letter images of each generator."""
    if node.is_pca and carrier.gauge is None:
        return False, "carrier generators must be nonnegative"
    rules, out = _scalar_rules(z.tag), node.coalgebra.out
    for g, letter_images in zip(node.generators, images):
        o = scaled_dot(out, g)
        if z.functor == GHAT and node.is_pca:
            breach = ghat_breach(o, letter_images, carrier.gauge)
            if breach == "output":
                return False, f"negative output weight at generator {fmt_vec(g)}"
            if breach == "cone":
                return False, f"letter image of {fmt_vec(g)} leaves the carrier cone"
            if breach is not None:
                return False, (f"budget {fmt_ratio(*breach)} exceeds 1 "
                               f"at generator {fmt_vec(g)}")
        else:
            if not rules(o[1], (o[0],)):
                return False, f"output weight {fmt_ratio(*o)} outside the semiring"
            if not all(map(carrier.member, letter_images)):
                return False, f"transition image of {fmt_vec(g)} leaves the carrier"
    return True, ""


def _morphism_carrier_ok(src, member, images):
    """The morphism sends every source generator into the target carrier;
    images are the morphism images of the generators."""
    for g, fg in zip(src.generators, images):
        if not member(fg):
            return False, f"image of generator {fmt_vec(g)} not in target carrier"
    return True, ""


def _morphism_square_ok(mor, src, dst, f_images, letter_images):
    """The morphism commutes with the output weights and the letter maps on
    every source generator, given its morphism and letter images.

    Each letter square compares f (M g) with M' (f g) row by row: row i of
    each side is one integer sum over the matrix's sparse row, and the two
    are cross-multiplied by the other side's denominator, so neither product
    vector is built and the test stops at the first unequal row.  The shape
    check has fixed every length, so the rows are those of the two products."""
    c_src, c_dst = src.coalgebra, dst.coalgebra
    f_den, f_rows = mor.matrix.scaled()
    letters = [(a, *m.scaled()) for a, m in zip(c_src.alphabet, c_dst.trans)]
    for g, fg, m_images in zip(src.generators, f_images, letter_images):
        (p, q), (r, s) = scaled_dot(c_src.out, g), scaled_dot(c_dst.out, fg)
        if p * s != r * q:
            return False, f"output weight changes along generator {fmt_vec(g)}"
        fg_den, pick_fg = fg[0], fg[1].__getitem__
        for (a, m_den, m_rows), (mg_den, mgs) in zip(letters, m_images):
            left, right, pick_mg = m_den * fg_den, f_den * mg_den, mgs.__getitem__
            for (f_cols, f_nums), (m_cols, m_nums) in zip(f_rows, m_rows):
                if (sum(map(mul, f_nums, map(pick_mg, f_cols))) * left
                        != sum(map(mul, m_nums, map(pick_fg, m_cols))) * right):
                    return False, f"letter {a!r} square fails at generator {fmt_vec(g)}"
    return True, ""


def _relating_ok(element, node, member, endpoint, side):
    """A source node's relating element lies in its carrier and, at an end
    of the chain, is that side's endpoint."""
    if element is None or len(element[1]) != node.dim:
        return False, "source node lacks a relating element"
    if not member(element):
        return False, "relating element outside the carrier"
    if endpoint is not None and not scaled_equal(element, endpoint):
        return False, f"{side} endpoint does not match its relating element"
    return True, ""


def _input_ok(z, node, endpoint, aut, x):
    """The witness speaks of the input: the tag, the alphabet, the end node's
    output and letter matrices and the endpoint are the input automaton's
    and its state's.  Scaled vectors in lowest terms and `Mat`s are
    canonical, so each is compared with `==`."""
    if z.tag is not aut.tag:
        return False, f"witness tag {z.tag.value} is not the input's {aut.tag.value}"
    if z.alphabet != aut.alphabet:
        return False, "witness alphabet is not the input's"
    if node.coalgebra.out != aut.out:
        return False, "end node's output is not the input's"
    for a, m, want in zip(aut.alphabet, node.coalgebra.trans, aut.trans):
        if m != want:
            return False, f"end node's matrix of letter {a!r} is not the input's"
    if endpoint != x:
        return False, "endpoint is not the input's state"
    return True, ""


def verify_zigzag(z, inputs=None):
    """Re-check a witness from its stated data; every failure is reported.

    The checks are those of the soundness half of the zig-zag argument, and
    together they give x1 and x2 equal traces, so the traces themselves are
    not compared.  Say every check passes.  Each node's carrier lies in the
    span of its generators, and `node-coalgebra` puts every letter image of
    a generator in the carrier (for a subconvex node, at a finite gauge,
    so in its cone), so that span is closed under the letter maps.  A
    `morphism-square` holds on the source generators, so by linearity the
    morphism h commutes with the outputs and the letter maps on their span:
    out_dst . M_w h v = out_src . M_w v for every word w and every v there.
    Each relating element lies in its source's carrier (`relating`), so h
    carries its trace unchanged, and `chain` equates the images at each
    sink and ties the ends of the chain to x1 and x2.  Along the chain of
    equal traces, x1 and x2 have the same trace.

    With `inputs`, ((A1, x1), (A2, x2)) as read from the automaton files,
    two more checks, `input[left]` and `input[right]`, tie node 0 and the
    last node, and the endpoints, to them (`_input_ok`): a valid witness of
    another pair does not pass for one of these.

    The `shape` check states what a zig-zag is: n >= 3 nodes, n odd, one
    morphism between each two adjacent nodes and no other, no node both a
    source and a target (so the arrows alternate), each matrix dim(dst) x
    dim(src), and fitting endpoints, relating nodes (distinct, each a node),
    functor and alphabet.
    Right after it, every letter image of a generator and every morphism
    image of a source generator is taken once (`_images`): read off the
    matrix's columns for a generator with one nonzero entry, each matrix's
    columns read at most once for the whole witness, and multiplied out by
    `Mat.apply_scaled` for any other.  The checks read those images;
    `chain` takes one product per relating element into a sink."""
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

    nodes, mors = z.nodes, z.morphisms
    n = len(nodes)
    x1, x2 = z.endpoints
    sources = sorted({mor.src for mor in mors})
    sinks = sorted({mor.dst for mor in mors})
    indices = [i for i, _ in z.relating]
    shape_ok = (n >= 3 and n % 2 == 1
                and sorted((min(m.src, m.dst), max(m.src, m.dst)) for m in mors)
                == [(i, i + 1) for i in range(n - 1)]
                and set(sources).isdisjoint(sinks)
                and all((m.matrix.nrows, m.matrix.ncols) == (nodes[m.dst].dim, nodes[m.src].dim)
                        for m in mors)
                and len(x1[1]) == nodes[0].dim and len(x2[1]) == nodes[-1].dim
                and len(set(indices)) == len(indices) and all(0 <= i < n for i in indices)
                and (z.functor, z.tag is SemiringTag.PCA) not in ((GHAT, False), (CUBIC, True))
                and all(node.coalgebra.alphabet == z.alphabet for node in nodes))
    add("shape", shape_ok,
        "" if shape_ok else "not an alternating chain of adjacent morphisms")
    if not shape_ok:
        return Report(False, checks)

    columns = {}
    letter_images = [_images(node.coalgebra.trans, node.generators, columns) for node in nodes]
    mor_images = [[fg for fg, in _images((mor.matrix,), nodes[mor.src].generators, columns)]
                  for mor in mors]
    carriers = [_carrier(z.tag, node) for node in nodes]
    for i, node in enumerate(nodes):
        detail = carriers[i].kind_detail
        if not detail and i in sinks and not node.is_free:
            detail = "nodes with incoming arrows must be free"
        if not detail and z.functor == GHAT and not node.is_pca:
            detail = "subconvex witnesses need subconvex carriers"
        add(f"node-kind[{i}]", not detail, detail)
        add_guarded(f"node-coalgebra[{i}]", _coalgebra_self_map_ok, z, node, carriers[i],
                    letter_images[i])

    for k, mor in enumerate(mors):
        i, j = mor.src, mor.dst
        add_guarded(f"morphism-carrier[{k}]", _morphism_carrier_ok, nodes[i],
                    carriers[j].member, mor_images[k])
        add(f"morphism-square[{k}]", *_morphism_square_ok(
            mor, nodes[i], nodes[j], mor_images[k], letter_images[i]))

    relating = dict(z.relating)
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
        for mor in [m for m in mors if m.dst == s]:
            zsrc = relating.get(mor.src)
            if zsrc is None:
                ok, detail = False, "missing relating element upstream"
                break
            if len(zsrc[1]) != mor.matrix.ncols:
                ok, detail = False, f"relating element at node {mor.src} has the wrong length"
                break
            pushed.append(mor.matrix.apply_scaled(zsrc))
        if ok and not all(scaled_equal(p, pushed[0]) for p in pushed[1:]):
            ok, detail = False, "incoming relating images disagree"
        if ok and s in ends and pushed and not scaled_equal(pushed[0], ends[s][0]):
            ok, detail = False, f"chain does not reach the {ends[s][1]} endpoint"
        add(f"chain[{s}]", ok, detail)

    if inputs is not None:
        for side, node, endpoint, (aut, x) in (("left", nodes[0], x1, inputs[0]),
                                               ("right", nodes[-1], x2, inputs[1])):
            add(f"input[{side}]", *_input_ok(z, node, endpoint, aut, x))

    return Report(all(c.ok for c in checks), checks)


# ---------------------------------------------------------------------------
# witness file format


def zigzag_to_text(z):
    lines = [f"zigzag {z.functor} {z.tag.value}",
             "alphabet " + " ".join(z.alphabet),
             f"nodes {len(z.nodes)}"]
    # each block is printed where it stands; the reader reads a repeated block once
    for i, node in enumerate(z.nodes):
        lines.append(f"node {i} {node.kind} dim {node.dim} generators {len(node.generators)}")
        lines += map(fmt_vec, node.generators)
        lines.append(("out " + fmt_vec(node.coalgebra.out)).rstrip())
        for a, m in zip(z.alphabet, node.coalgebra.trans):
            lines.append(f"trans {a}")
            lines += block_lines(m)
    lines.append(f"morphisms {len(z.morphisms)}")
    for mor in z.morphisms:
        lines.append(f"morphism {mor.src} {mor.dst}")
        lines += block_lines(mor.matrix)
    lines.append(f"relating {len(z.relating)}")
    lines += [(f"at {i} " + fmt_vec(v)).rstrip() for i, v in z.relating]
    lines.append(("left " + fmt_vec(z.endpoints[0])).rstrip())
    lines.append(("right " + fmt_vec(z.endpoints[1])).rstrip())
    return "\n".join(line for line in lines if line) + "\n"


def parse_zigzag(text, source="<witness>"):
    r = LineReader(text, source)
    line, toks = r.keyword(0, "zigzag")
    if len(toks) != 3:
        r.error(line, "expected: zigzag <functor> <tag>")
    functor = toks[1]
    if functor not in (CUBIC, GHAT):
        r.error(line, f"unknown functor {functor!r}")
    if (tag := _TAGS.get(toks[2])) is None:
        r.error(line, f"unknown semiring {toks[2]!r}")
    line, toks = r.keyword(1, "alphabet")
    alphabet = tuple(toks[1:])
    if len(set(alphabet)) != len(alphabet) or not alphabet:
        r.error(line, "alphabet must be nonempty and distinct")
    k = 2  # the index in `r.lines` of the last line read
    line, toks = r.keyword(k, "nodes")
    count = r.integer(toks[1], line, 1) if len(toks) == 2 else r.error(line, "expected a count")
    nodes = []
    for i in range(count):
        line, toks = r.keyword(k := k + 1, "node")
        if (len(toks) != 7 or toks[1] != str(i) or toks[3] != "dim"
                or toks[5] != "generators"):
            r.error(line, f"expected: node {i} <KIND> dim <d> generators <g>")
        kind = toks[2]
        if kind not in KINDS:
            r.error(line, f"unknown node kind {kind!r}")
        dim = r.integer(toks[4], line, minimum=0)
        ngens = r.integer(toks[6], line, minimum=0)
        gens = tuple(r.row(*r.at(j, f"{dim} rationals"), dim, start=0)
                     for j in range(k + 1, k + 1 + ngens))
        k += ngens
        out = r.row(*r.keyword(k := k + 1, "out"), dim)
        trans = []
        for a in alphabet:
            line, toks = r.keyword(k := k + 1, "trans")
            if toks[1:] != [a]:
                r.error(line, f"expected transition block for {a!r}")
            trans.append(r.block(k + 1, dim, dim))
            k += dim
        coalg = LinearCoalgebra(n=dim, alphabet=alphabet, out=out, trans=tuple(trans))
        nodes.append(ZigZagNode(kind=kind, generators=gens, coalgebra=coalg))
    line, toks = r.keyword(k := k + 1, "morphisms")
    mcount = r.integer(toks[1], line, 0) if len(toks) == 2 else r.error(line, "expected a count")
    morphisms = []
    for _ in range(mcount):
        line, toks = r.keyword(k := k + 1, "morphism")
        if len(toks) != 3:
            r.error(line, "expected: morphism <from> <to>")
        src = r.integer(toks[1], line, minimum=0)
        dst = r.integer(toks[2], line, minimum=0)
        if src >= count or dst >= count:
            r.error(line, "morphism endpoint out of range")
        nrows, ncols = nodes[dst].dim, nodes[src].dim
        morphisms.append(Morphism(src, dst, r.block(k + 1, nrows, ncols)))
        k += ncols if nrows else 0  # a block of height 0 has no lines
    line, toks = r.keyword(k := k + 1, "relating")
    rcount = r.integer(toks[1], line, 0) if len(toks) == 2 else r.error(line, "expected a count")
    relating = []
    for _ in range(rcount):
        line, toks = r.keyword(k := k + 1, "at")
        if len(toks) == 1:
            r.error(line, "expected: at <node> <element>")
        idx = r.integer(toks[1], line, minimum=0)
        if idx >= count:
            r.error(line, "relating node out of range")
        relating.append((idx, r.row(line, toks, nodes[idx].dim, start=2)))
    left = r.row(*r.keyword(k + 1, "left"), nodes[0].dim)
    line, toks = r.keyword(k + 2, "right")
    right = r.row(line, toks, nodes[-1].dim)
    if k + 3 < len(r.lines):
        r.error(r.lines[k + 3][0], "trailing input after witness")
    return ZigZag(functor=functor, tag=tag, alphabet=alphabet, nodes=tuple(nodes),
                  morphisms=tuple(morphisms), relating=tuple(relating),
                  endpoints=(left, right))
