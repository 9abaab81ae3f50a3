"""Weighted automata on free finitely generated carriers.

An automaton is the structure map of a coalgebra on S^n (or Delta^n for the
subconvex tags): an output functional plus one transition matrix per letter,
with c_a(e_j) stored as column j.  Words act by left matrix products, so the
weight of w = a1..ak from configuration x is out . (M_ak ... M_a1 x).

`LinearCoalgebra` is that data on any carrier and checks only its shapes; a
witness node holds one as it is.  `WeightedAutomaton` adds a semiring tag,
whose weight rules `check_weights` states once.  The output functional,
a configuration and each row of the pair closure's basis are scaled vectors
(d, ints) in lowest terms (`wazz.linalg`).  A pair is decided by the closure
of its configurations under the letter maps (`pair_submodule`), whose basis
is the rows its echelon form (over Q) or HNF (over Z) holds, and quotiented
by the closure of its outputs under the transposed maps (`pair_quotient`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import mul

from .formats import LineReader, block_lines, fmt_ratio, fmt_vec
from .linalg import (Mat, _Echelon, _Hnf, _concat, _lowest_terms, _pivot_coords, _pivot_scales,
                     _word_closure, least_word_off, scaled_dot)


class SemiringTag(Enum):
    NAT = "nat"
    INT = "int"
    QPLUS = "qplus"
    Q = "q"
    RPLUS = "rplus"
    REAL = "real"
    UNIT = "unit"
    PCA = "pca"

    @property
    def integral(self):
        return _RULES[self][0]

    @property
    def nonneg(self):
        return _RULES[self][1]

    @property
    def within_one(self):
        return _RULES[self][2]


# the scalar rules of each tag: whether its scalars are integers, are
# nonnegative, and stay within 1
_RULES = {SemiringTag.NAT: (True, True, False), SemiringTag.INT: (True, False, False),
          SemiringTag.QPLUS: (False, True, False), SemiringTag.Q: (False, False, False),
          SemiringTag.RPLUS: (False, True, False), SemiringTag.REAL: (False, False, False),
          SemiringTag.UNIT: (False, True, True), SemiringTag.PCA: (False, True, True)}
_TAGS = {tag.value: tag for tag in SemiringTag}  # the tags by their names in a file


def _scalar_rules(tag):
    """The tag's scalar rules as one test of integers cs over one d > 0,
    read once from the tag: each c / d is an integer for the integral tags,
    nonnegative for the nonnegative ones and within 1 for UNIT and PCA."""
    integral, nonneg, within_one = _RULES[tag]
    return lambda d, cs: ((not integral or all(c % d == 0 for c in cs))
                          and (not nonneg or all(c >= 0 for c in cs))
                          and (not within_one or all(c <= d for c in cs)))


class NotEquivalent(Exception):
    """Raised where equal traces are a precondition and they are not; `word` separates them."""

    def __init__(self, message, word):
        super().__init__(message)
        self.word = word


class TagViolation(ValueError):
    """A weight rule of the tag fails; `cells` are the (letter index, state
    index) positions it reads, letter None standing for the output."""

    def __init__(self, message, cells):
        super().__init__(message)
        self.cells = cells


def check_weights(tag, out, trans):
    """Raise TagViolation at the first weight rule of the tag that the output
    functional or a letter matrix breaks: output entries are scalars of the
    tag, letter entries are entries of it, each letter's column sums stay
    within 1 (UNIT), and each state's output plus transition mass stays
    within 1 (PCA).

    The letter rules read each matrix's integers over its common
    denominator d (`Mat.scaled`): an entry a / d is integral when d divides
    a, and a column sum stays within 1 when its integer sum is at most d.
    Entries are checked column by column, each column before its sum, and
    the output row, scaled, by one test of the tag's rules."""
    rules = _scalar_rules(tag)
    if not rules(*out):  # name the first entry that breaks them
        j = next(j for j, a in enumerate(out[1]) if not rules(out[0], (a,)))
        raise TagViolation(f"output entry {fmt_ratio(out[1][j], out[0])} violates tag "
                           f"{tag.value}", ((None, j),))
    integral, nonneg, unit_sums = tag.integral, tag.nonneg, tag is SemiringTag.UNIT
    mass = []  # per letter, its denominator and integer column sums
    for k, m in enumerate(trans):
        den, rows = m.scaled()
        sums = [0] * m.ncols
        bad = None  # (column, row, integer) of the first entry that breaks a rule
        for i, (cols, nums) in enumerate(rows):
            for j, a in zip(cols, nums):
                sums[j] += a
                if (integral and a % den or nonneg and a < 0) and (bad is None or (j, i, a) < bad):
                    bad = (j, i, a)
        over = None
        if unit_sums:
            over = next((j for j, total in enumerate(sums) if total > den), None)
        if bad is not None and (over is None or bad[0] <= over):
            j, _, a = bad
            raise TagViolation(f"entry {fmt_ratio(a, den)} violates tag {tag.value}",
                               ((k, j),))
        if over is not None:
            raise TagViolation("column sums must stay within 1 for unit tag", ((k, over),))
        mass.append((den, sums))
    if tag is SemiringTag.PCA:
        out_den, outs = out
        scale = lcm(out_den, *(den for den, _ in mass))
        for j in range(len(outs)):
            total = outs[j] * (scale // out_den) + sum(sums[j] * (scale // den)
                                                       for den, sums in mass)
            if total > scale:
                raise TagViolation(f"state {j + 1}: output plus transition mass exceeds 1",
                                   ((None, j),) + tuple((k, j) for k in range(len(trans))))


@dataclass(frozen=True)
class LinearCoalgebra:
    """A linear structure map on ambient coordinates: an output functional
    and one square matrix per letter.  It checks shapes only; the weights are
    the holder's business (a `WeightedAutomaton` adds a tag, a witness node
    carrier generators)."""

    n: int
    alphabet: tuple
    out: tuple    # scaled (d, ints)
    trans: tuple  # one n x n Mat per alphabet symbol, same order

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "trans", tuple(self.trans))
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate alphabet symbols")
        if len(self.out[1]) != self.n:
            raise ValueError("output vector has wrong length")
        if len(self.trans) != len(self.alphabet):
            raise ValueError("one transition matrix per symbol required")
        for m in self.trans:
            if m.nrows != self.n or m.ncols != self.n:
                raise ValueError("transition matrix has wrong shape")

    def mat(self, symbol):
        try:
            return self.trans[self.alphabet.index(symbol)]
        except ValueError:
            raise ValueError(f"unknown symbol {symbol!r}") from None

    def paired(self, other):
        """The block-diagonal coalgebra on the product of both carriers, with
        this side's output extended by zeros; both sides share the alphabet
        (`_check_pair`)."""
        return LinearCoalgebra(n=self.n + other.n, alphabet=self.alphabet,
                               out=(self.out[0], self.out[1] + (0,) * other.n),
                               trans=tuple(Mat.block_diag(a, b)
                                           for a, b in zip(self.trans, other.trans)))


@dataclass(frozen=True)
class WeightedAutomaton(LinearCoalgebra):
    """A linear coalgebra whose weights keep the rules of a semiring tag."""

    tag: SemiringTag

    def __post_init__(self):
        super().__post_init__()
        check_weights(self.tag, self.out, self.trans)

    @classmethod
    def _parsed(cls, tag, n, alphabet, out, trans):
        """The automaton of parts whose shapes their reader has checked, line
        by line: `check_weights` alone runs here, once."""
        check_weights(tag, out, trans)
        aut = object.__new__(cls)
        vars(aut).update(n=n, alphabet=alphabet, out=out, trans=trans, tag=tag)
        return aut

    @property
    def coalgebra(self):
        """The same maps without the tag."""
        return LinearCoalgebra(n=self.n, alphabet=self.alphabet, out=self.out,
                               trans=self.trans)


@dataclass
class Trace:
    """Word weights up to a fixed depth."""

    depth: int
    values: dict

    def __getitem__(self, word):
        return self.values[tuple(word)]

    def items(self):
        return sorted(self.values.items(), key=lambda kv: (len(kv[0]), kv[0]))


def step(aut, x, symbol):
    """One transition: M_symbol applied to the scaled configuration x."""
    if len(x[1]) != aut.n:
        raise ValueError("configuration has wrong length")
    return _lowest_terms(aut.mat(symbol).apply_scaled(x))


def trace(aut, x, depth):
    """All word weights out . c_w(x) for |w| <= depth, x scaled, as Fractions."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if len(x[1]) != aut.n:
        raise ValueError("configuration has wrong length")
    values = {(): Fraction(*scaled_dot(aut.out, x))}
    frontier = [((), x)]
    for _ in range(depth):
        nxt = []
        for word, v in frontier:
            for a in aut.alphabet:
                w = word + (a,)
                image = step(aut, v, a)
                values[w] = Fraction(*scaled_dot(aut.out, image))
                nxt.append((w, image))
        frontier = nxt
    return Trace(depth, values)


def _check_pair(aut1, x1, aut2, x2):
    if aut1.tag is not aut2.tag:
        raise ValueError("automata have different semiring tags")
    if len(x1[1]) != aut1.n or len(x2[1]) != aut2.n:
        raise ValueError("configuration has wrong length")
    if aut1.alphabet != aut2.alphabet:
        raise ValueError("automata have different alphabets")
    if aut1.tag.integral and (x1[0] != 1 or x2[0] != 1):  # a lattice of integer vectors
        raise ValueError("lattice closure needs integral start")


def _negated(v):
    return v[0], tuple([-a for a in v[1]])


def _paired(aut1, x1, aut2, x2):
    """Block-diagonal coalgebra, scaled start vector and output difference of
    the pair, the last as the integers of the two outputs over one
    denominator: the weights agree on a word iff the difference annihilates
    its image."""
    _check_pair(aut1, x1, aut2, x2)
    return aut1.paired(aut2), _concat(x1, x2), _concat(aut1.out, _negated(aut2.out))[1]


def _letters(alphabet, word):
    return tuple(alphabet[i] for i in word)


def separating_word(aut1, x1, aut2, x2):
    """Shortest word (alphabet-order tie break) where the weights differ,
    or None when the traces agree."""
    return equivalent(aut1, x1, aut2, x2).word


def pair_submodule(aut1, x1, aut2, x2):
    """Closure of the paired configuration orbit, with the paired coalgebra.

    Returns (a basis of Z, the block-diagonal `LinearCoalgebra` of both
    automata), where Z is the submodule generated by all word images of
    (x1, x2) under the paired transitions.  The basis is the rows the
    closure's span holds, each as the scaled vector (1, row): over Q the
    echelon rows (`_Echelon`), primitive with a positive leading entry
    where every later row is zero, and over Z the lattice's HNF rows
    (`_Hnf`).  Z, not the words that happened to span it, is what the
    restrictions read, and on these rows their frame is only the
    back-substitution of the closure's elimination.  It checks that both
    sides share tag and alphabet and that the configurations fit, and that
    the output functionals agree on every word image, which happens
    exactly when the traces agree; otherwise it raises NotEquivalent,
    carrying the shortlex-least separating word.

    One word closure (`_word_closure`) decides and, at its first vector the
    output difference does not annihilate, names the word, over Z as over
    Q: the image of every word lies in the span (the lattice) of the
    vectors with words up to it.  The output difference is read as integers
    once, and each vector is tested with one integer dot product on its
    scaled image (a positive scale changes no zero).
    """
    pair, start, difference = _paired(aut1, x1, aut2, x2)
    integral = aut1.tag.integral
    span = _Hnf() if integral else _Echelon()
    for word, v in _word_closure(start, pair.trans, span):
        if sum(map(mul, difference, v[1])):
            raise NotEquivalent("output functionals differ on the pair closure",
                                word=_letters(aut1.alphabet, word))
    rows = span.rows if integral else (row for _, row in span.rows)
    return [(1, tuple(row)) for row in rows], pair


def pair_quotient(aut1, x1, aut2, x2):
    """The quotient of the pair by its word functionals: (h1, h2, Q), Q a
    `LinearCoalgebra` on k coordinates and h1, h2 the k-row matrices that
    map each side into it, coalgebra morphisms that send x1 and x2 to one
    element.  It raises NotEquivalent, with the shortlex-least separating
    word, when the traces differ.

    This is the backward half of Schützenberger's reduction.  The functional
    of a word w is phi_w = (out1 M1_w | out2 M2_w), and the weights of w at
    x1 and x2 agree exactly when phi_w annihilates (x1, -x2).  The phi_w
    span a space closed under right multiplication by the paired letter
    maps: the closure of (out1 | out2) under the transposed maps, breadth
    first.  Its basis B has k rows, and h = [h1 | h2] = B.  Row j of Q's
    letter a holds the coordinates of B_j M_a in B, and Q's output those of
    (out1 | out2), so that Q_a h = h M_a and out_Q h = out on each side.

    Over a field B is the reduced row echelon form, and coordinates are the
    entries at its pivot columns; it is unique, and the closure's own
    `_Echelon` reads it off its rows by one back-substitution.  Over Z
    (`int`) the word functionals span a lattice, a subgroup of Z^(n1 + n2);
    over a principal ideal domain every such subgroup is free, and B is its
    HNF basis, the closure's `_Hnf` rows, in which the coordinates of each
    B_j M_a and of the output are integers.  Both read B by `reduced()`.

    The closure (`_word_closure`, in an `_Echelon` over Q and an `_Hnf`
    over Z) yields its rows in word-length order, and the functionals of
    the words of length at most l span, over Q, the same space as the rows
    of level at most l.  So the first row that does not
    annihilate (x1, -x2), of level L, shows that L is the shortest
    separating length, and the word is read off letter by letter
    (`least_word_off`), with no closure of the configurations.
    """
    _check_pair(aut1, x1, aut2, x2)
    integral, n1, n = aut1.tag.integral, aut1.n, aut1.n + aut2.n
    maps = [Mat.block_diag_transposed(a, b) for a, b in zip(aut1.trans, aut2.trans)]
    out = _concat(aut1.out, aut2.out)
    gap = _concat(x1, _negated(x2))
    # B's rows, grown by the closure: the HNF rows over Z, the echelon rows over Q
    span = _Hnf() if integral else _Echelon()
    functionals, levels = [], []
    for word, (_, ints) in _word_closure(out, maps, span):
        if sum(map(mul, gap[1], ints)):
            word = least_word_off(len(word), functionals, levels, gap, [
                Mat.block_diag(a, b) for a, b in zip(aut1.trans, aut2.trans)])
            raise NotEquivalent("word functionals do not annihilate the pair",
                                word=_letters(aut1.alphabet, word))
        functionals.append(ints)
        levels.append(len(word))
    pivots, basis = span.reduced()
    den = 1
    if not integral:  # the rref: each row over its pivot entry
        den, scales = _pivot_scales(basis, pivots)
        basis = [[a * s for a in row] for row, s in zip(basis, scales)]
    # a vector of the span is read at the pivot columns alone, where B_j M_a
    # is M_a^T's pivot rows applied to B_j
    k, at_pivots = len(basis), [b.__getitem__ for b in basis]
    outs, trans = [out[1][p] for p in pivots], []
    for t in maps:
        picked = [t.sparse[p] for p in pivots]
        rows = [[sum(map(mul, nums, map(get, cols))) for cols, nums in picked]
                for get in at_pivots]
        if integral:
            trans.append(Mat._of_rows(1, [_pivot_coords(w, basis, pivots) for w in rows], k))
        else:
            trans.append(Mat._of_rows(t.den * den, rows, k))
    out_q = (1, _pivot_coords(outs, basis, pivots)) if integral else (
        _lowest_terms((out[0], outs)))
    quotient = LinearCoalgebra(n=k, alphabet=aut1.alphabet, out=out_q, trans=tuple(trans))
    return (Mat._of_rows(den, [b[:n1] for b in basis], n1),
            Mat._of_rows(den, [b[n1:] for b in basis], n - n1), quotient)


@dataclass(frozen=True)
class EquivResult:
    equivalent: bool
    basis: tuple = None       # the pair closure's basis (`pair_submodule`) when equivalent
    word: tuple = None        # separating word otherwise

    def __bool__(self):
        return self.equivalent


def equivalent(aut1, x1, aut2, x2):
    """Exact trace-equivalence decision with a checkable certificate."""
    try:
        basis, _ = pair_submodule(aut1, x1, aut2, x2)
    except NotEquivalent as exc:
        return EquivResult(False, word=exc.word)
    return EquivResult(True, basis=tuple(basis))


# ---------------------------------------------------------------------------
# file format


def parse_automaton(text, source="<automaton>"):
    """Strict parser for the line-oriented automaton format.

    Returns (automaton, state) where state is the optional distinguished
    configuration carried by the file (None when absent).
    """
    r = LineReader(text, source)
    lines = r.lines
    line, toks = r.keyword(0, "semiring")
    if len(toks) != 2:
        r.error(line, "expected exactly one semiring tag")
    if (tag := _TAGS.get(toks[1])) is None:
        r.error(line, f"unknown semiring {toks[1]!r}")
    line, toks = r.keyword(1, "alphabet")
    alphabet = tuple(toks[1:])
    if not alphabet:
        r.error(line, "alphabet must not be empty")
    if len(set(alphabet)) != len(alphabet):
        r.error(line, "duplicate alphabet symbols")
    line, toks = r.keyword(2, "states")
    if len(toks) != 2:
        r.error(line, "expected exactly one state count")
    n = r.integer(toks[1], line, minimum=1)
    out_line, toks = r.keyword(3, "output")
    out = r.row(out_line, toks, n)
    blocks = {}  # letter -> (index in `lines` of its block's first line, matrix)
    state = None
    k = 4
    while k < len(lines):
        line, toks = lines[k]
        k += 1
        if toks[0] == "trans":
            if len(toks) != 2:
                r.error(line, "expected: trans <symbol>")
            sym = toks[1]
            if sym not in alphabet:
                r.error(line, f"unknown symbol {sym!r}")
            if sym in blocks:
                r.error(line, f"duplicate transition block for {sym!r}")
            # file rows are images of basis vectors: the matrix's columns
            blocks[sym] = k, r.block(k, n, n)
            k += n
        elif toks[0] == "state":
            if state is not None:
                r.error(line, "duplicate state line")
            state = r.row(line, toks, n)
            if not (rules := _scalar_rules(tag))(*state):
                bad = next(a for a in state[1] if not rules(state[0], (a,)))
                r.error(line, f"state entry {fmt_ratio(bad, state[0])} violates tag {tag.value}")
            # the endpoint carrier of the subconvex tags is the subsimplex:
            # the entries' integer sum over their denominator d is at most d
            if tag.within_one and (total := sum(state[1])) > state[0]:
                r.error(line, f"state entries sum to {fmt_ratio(total, state[0])}, "
                              f"above 1 for tag {tag.value}")
        else:
            r.error(line, f"unexpected directive {toks[0]!r}")
    missing = [a for a in alphabet if a not in blocks]
    if missing:
        r.error(lines[-1][0], f"missing transition block for {missing[0]!r}")  # at the end
    try:
        aut = WeightedAutomaton._parsed(tag, n, alphabet, out,
                                        tuple([blocks[a][1] for a in alphabet]))
    except TagViolation as exc:
        # reported where reading the file top down first shows the fault:
        # the last line of the (letter index, state) cells the rule reads
        r.error(max(out_line if a is None else lines[blocks[alphabet[a]][0] + j][0]
                    for a, j in exc.cells), str(exc))
    return aut, state


def automaton_to_text(aut, state=None):
    lines = [f"semiring {aut.tag.value}",
             "alphabet " + " ".join(aut.alphabet),
             f"states {aut.n}",
             "output " + fmt_vec(aut.out)]
    for a in aut.alphabet:
        lines.append(f"trans {a}")
        lines += block_lines(aut.mat(a))
    if state is not None:
        lines.append("state " + fmt_vec(state))
    return "\n".join(lines) + "\n"
