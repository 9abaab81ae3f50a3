"""Seeded random automata, forced-equivalent pairs and witness mutations for
the test suites.  Configurations come out scaled, as the package takes them."""

from dataclasses import replace
from fractions import Fraction as F

from wazz.automata import SemiringTag, WeightedAutomaton
from wazz.linalg import Mat, scaled
from wazz.zigzag import FREE_MODULE, FREE_PCA, GENERATED_MODULE, GENERATED_PCA

from matvec_oracle import fraction_rows, fractions, from_cols, matmul, vdot, vector, zeros

T = SemiringTag


def rand_scalar(rng, tag):
    if tag is T.NAT:
        # sparse 0/1 weights keep the pair lattices at desk scale; dense or
        # large weights make Hilbert bases blow up combinatorially
        return F(rng.choice([0, 0, 0, 1, 1]))
    if tag is T.INT:
        return F(rng.randint(-2, 2))
    if tag in (T.QPLUS, T.RPLUS):
        # halves only and plenty of zeros: the scaling route multiplies
        # denominators through the pair lattice
        return F(rng.choice([0, 0, 0, 1, 1, 2]), rng.choice([1, 2]))
    if tag in (T.Q, T.REAL):
        return F(rng.randint(-3, 3), rng.randint(1, 3))
    raise ValueError(tag)


def _subconvex_cols(rng, n, slots):
    """`slots` columns of length n whose individual sums stay within 1."""
    cols = []
    for _ in range(slots):
        raw = [rng.randint(0, 2) for _ in range(n)]
        den = max(1, sum(raw) + rng.randint(0, 2))
        cols.append(vector([F(x, den) for x in raw]))
    return cols


def rand_automaton(rng, tag, n, alphabet):
    alphabet = tuple(alphabet)
    if tag in (T.UNIT, T.PCA):
        out = []
        trans_cols = {a: [] for a in alphabet}
        for _ in range(n):
            if tag is T.UNIT:
                # output and each column budgeted separately
                out.append(F(rng.randint(0, 3), 3))
                for a, col in zip(alphabet, _subconvex_cols(rng, n, len(alphabet))):
                    trans_cols[a].append(col)
            else:
                # joint budget: out_j + total column mass <= 1
                raw = [rng.randint(0, 2) for _ in range(1 + len(alphabet) * n)]
                den = max(1, sum(raw) + rng.randint(0, 2))
                out.append(F(raw[0], den))
                idx = 1
                for a in alphabet:
                    trans_cols[a].append(vector([F(raw[idx + i], den) for i in range(n)]))
                    idx += n
        trans = tuple(from_cols(trans_cols[a], nrows=n) for a in alphabet)
        return WeightedAutomaton(tag=tag, n=n, alphabet=alphabet,
                                 out=scaled(out), trans=trans)
    out = scaled([rand_scalar(rng, tag) for _ in range(n)])
    trans = []
    for _ in alphabet:
        rows = [[rand_scalar(rng, tag) for _ in range(n)] for _ in range(n)]
        trans.append(Mat(rows))
    return WeightedAutomaton(tag=tag, n=n, alphabet=alphabet, out=out,
                             trans=tuple(trans))


def rand_config(rng, tag, n):
    if tag in (T.UNIT, T.PCA):
        raw = [rng.randint(0, 2) for _ in range(n)]
        den = max(1, sum(raw) + rng.randint(0, 1))
        return scaled([F(x, den) for x in raw])
    return scaled([rand_scalar(rng, tag) for _ in range(n)])


def lifted_pair(rng, tag, k, extra, alphabet):
    """A forced-equivalent pair: a k-state automaton and its (k+extra)-state
    lift along the surjection [I | R], plus related configurations (`lift`)."""
    alphabet = tuple(alphabet)
    small = rand_automaton(rng, tag, k, alphabet)
    if tag in (T.UNIT, T.PCA):
        r_cols = _subconvex_cols(rng, k, extra)
    else:
        r_cols = [vector([rand_scalar(rng, tag) for _ in range(k)]) for _ in range(extra)]
    return lift(small, r_cols, rand_config(rng, tag, k + extra))


def lift(small, r_cols, x_big):
    """(big, x_big, small, f(x_big)): the lift of the k-state automaton small
    along the surjection f = [I | R], R having the columns r_cols; x_big
    and f(x_big) are scaled.

    With B_a = [[C_a, C_a R], [0, 0]] and out_B = (out_C, out_C . R) the
    surjection is a coalgebra morphism, so x and f(x) have equal traces.
    """
    k, extra = small.n, len(r_cols)
    n = k + extra
    r_mat = from_cols(r_cols, nrows=k)
    big_trans = []
    for c in small.trans:
        cr = matmul(c, r_mat) if extra else None
        rows, c_rows, cr_rows = [], fraction_rows(c), fraction_rows(cr) if extra else None
        for i in range(k):
            rows.append(tuple(c_rows[i]) + (tuple(cr_rows[i]) if extra else ()))
        for _ in range(extra):
            rows.append(zeros(n))
        big_trans.append(Mat(rows, ncols=n))
    out_small, x_big = fractions(small.out), fractions(x_big)
    out_big = out_small + tuple(vdot(out_small, col) for col in r_cols)
    big = WeightedAutomaton(tag=small.tag, n=n, alphabet=small.alphabet, out=scaled(out_big),
                            trans=tuple(big_trans))
    x_small = tuple(x_big[i] + vdot([c[i] for c in r_cols], x_big[k:]) for i in range(k))
    return big, scaled(x_big), small, scaled(x_small)


def zero_one_weight(rng, aut):
    """A copy of aut with one nonzero weight set to zero (valid for every tag)."""
    slots = [("out", i, None) for i, q in enumerate(aut.out[1]) if q]
    slots += [(k, i, j) for k, m in enumerate(aut.trans)
              for i, row in enumerate(fraction_rows(m)) for j, q in enumerate(row) if q]
    if not slots:
        return aut
    k, i, j = rng.choice(slots)
    out = list(fractions(aut.out))
    rows = [[list(r) for r in fraction_rows(m)] for m in aut.trans]
    if k == "out":
        out[i] = 0
    else:
        rows[k][i][j] = 0
    return WeightedAutomaton(tag=aut.tag, n=aut.n, alphabet=aut.alphabet, out=scaled(out),
                             trans=tuple(Mat(r) for r in rows))


SWAPPED_KIND = {FREE_MODULE: GENERATED_MODULE, GENERATED_MODULE: FREE_MODULE,
                FREE_PCA: GENERATED_PCA, GENERATED_PCA: FREE_PCA}


def with_redundant_generators(z):
    """z with one redundant generator appended to each generated carrier: the
    midpoint of its first two generators (of its first and 0) for a hull,
    the sum of its first two (its first doubled) for a module.  The carrier
    is the same set, so z stays as valid as it was, but its generators are
    now linearly dependent."""
    nodes = []
    for node in z.nodes:
        gens = node.generators
        if not node.is_free and gens:
            g = fractions(gens[0])
            h = fractions(gens[1]) if len(gens) > 1 else (F(0),) * node.dim if node.is_pca else g
            extra = [(a + b) / 2 if node.is_pca else a + b for a, b in zip(g, h)]
            node = replace(node, generators=gens + (scaled(extra),))
        nodes.append(node)
    return replace(z, nodes=tuple(nodes))


def report_witnesses(z):
    """(label, witness) for z and for each of a fixed list of mutations of it:
    per node, negate its first generator, drop its last one, add a dependent
    one (free nodes), swap FREE_* and GENERATED_*, and bump its first output;
    double the first column of each morphism; add e_0 to each relating
    element."""
    def with_node(i, **fields):
        nodes = list(z.nodes)
        nodes[i] = replace(nodes[i], **fields)
        return replace(z, nodes=tuple(nodes))

    yield "valid", z
    for i, node in enumerate(z.nodes):
        gens = node.generators
        if gens:
            first = fractions(gens[0])
            yield f"negate generator 0 of node {i}", with_node(
                i, generators=(scaled([-a for a in first]),) + gens[1:])
            yield f"drop the last generator of node {i}", with_node(i, generators=gens[:-1])
            if node.is_free:
                dependent = scaled([a + b for a, b in zip(first, fractions(gens[-1]))])
                yield f"dependent generator on node {i}", with_node(
                    i, generators=gens + (dependent,))
        yield f"swap the kind of node {i}", with_node(i, kind=SWAPPED_KIND[node.kind])
        if node.dim:
            out = fractions(node.coalgebra.out)
            yield f"bump output 0 of node {i}", with_node(
                i, coalgebra=replace(node.coalgebra, out=scaled((out[0] + 1,) + out[1:])))
    for k, mor in enumerate(z.morphisms):
        m = mor.matrix
        if m.ncols:
            morphisms = list(z.morphisms)
            morphisms[k] = replace(mor, matrix=Mat([(2 * r[0],) + r[1:] for r in fraction_rows(m)],
                                                   ncols=m.ncols))
            yield f"double column 0 of morphism {k}", replace(z, morphisms=tuple(morphisms))
    for j, (i, v) in enumerate(z.relating):
        if v[1]:
            relating = list(z.relating)
            relating[j] = (i, scaled([a + int(k == 0) for k, a in enumerate(fractions(v))]))
            yield f"replace relating element {j}", replace(z, relating=tuple(relating))


def negative_output_witnesses(z):
    """(label, witness) for each node of positive dimension with every output
    weight set to -1: a subconvex node then has a negative output weight at
    every nonzero nonnegative generator, a mutation `report_witnesses` lacks."""
    for i, node in enumerate(z.nodes):
        if node.dim:
            nodes = list(z.nodes)
            nodes[i] = replace(node, coalgebra=replace(node.coalgebra,
                                                       out=(1, (-1,) * node.dim)))
            yield f"negative outputs at node {i}", replace(z, nodes=tuple(nodes))
