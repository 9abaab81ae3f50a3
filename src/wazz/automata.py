"""Weighted automata on free finitely generated carriers.

An automaton is the structure map of a coalgebra on S^n (or Delta^n for the
subconvex tags): an output functional plus one transition matrix per letter,
with c_a(e_j) stored as column j.  Words act by left matrix products, so the
weight of w = a1..ak from configuration x is out . (M_ak ... M_a1 x).

`LinearCoalgebra` is that data on any carrier and checks only its shapes; a
witness node holds one as it is.  `WeightedAutomaton` adds a semiring tag,
whose weight rules `check_weights` states once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lcm

from .formats import LineReader, ParseError, fmt_rat, fmt_vec
from .linalg import (Mat, _clear_denominators, closure_under_maps, first_word_off, vdot,
                     vector, vneg, word_closure, zeros)


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
        return self in (SemiringTag.NAT, SemiringTag.INT)

    @property
    def nonneg(self):
        return self in (SemiringTag.NAT, SemiringTag.QPLUS, SemiringTag.RPLUS,
                        SemiringTag.UNIT, SemiringTag.PCA)

    @property
    def completion(self):
        """The ring completion the tag embeds into (an exactly representable
        stand-in for the reals in the RPLUS/UNIT/PCA cases)."""
        return _COMPLETION[self]

    def entry_ok(self, q):
        """Whether q may be a letter-matrix entry: an integer for the
        integral tags, nonnegative for the nonnegative ones."""
        return ((not self.integral or q.denominator == 1)
                and (not self.nonneg or q >= 0))

    def scalar_ok(self, q):
        """Whether q is a scalar of the tag: an entry, within 1 for UNIT and PCA."""
        return self.entry_ok(q) and (self not in (SemiringTag.UNIT, SemiringTag.PCA) or q <= 1)


_COMPLETION = {
    SemiringTag.NAT: SemiringTag.INT,
    SemiringTag.INT: SemiringTag.INT,
    SemiringTag.QPLUS: SemiringTag.Q,
    SemiringTag.Q: SemiringTag.Q,
    SemiringTag.RPLUS: SemiringTag.REAL,
    SemiringTag.REAL: SemiringTag.REAL,
    SemiringTag.UNIT: SemiringTag.REAL,
    SemiringTag.PCA: SemiringTag.REAL,
}


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

    The letter rules read each matrix scaled once to integers over its common
    denominator d (`Mat.scaled`): an entry a / d is integral when d divides
    a, and a column sum stays within 1 when its integer sum is at most d.
    Entries are checked column by column, each column before its sum, and
    only an entry that breaks a rule becomes a Fraction, for the message."""
    for j, q in enumerate(out):
        if not tag.scalar_ok(q):
            raise TagViolation(f"output entry {fmt_rat(q)} violates tag {tag.value}",
                               ((None, j),))
    integral, nonneg, unit_sums = tag.integral, tag.nonneg, tag is SemiringTag.UNIT
    mass = []  # per letter, its denominator and integer column sums
    for k, m in enumerate(trans):
        den, rows = m.scaled()
        sums = [0] * m.ncols
        bad = None  # (column, row) of the first entry that breaks a rule
        for i, (cols, nums) in enumerate(rows):
            for j, a in zip(cols, nums):
                sums[j] += a
                if (integral and a % den or nonneg and a < 0) and (bad is None or (j, i) < bad):
                    bad = (j, i)
        over = None
        if unit_sums:
            over = next((j for j, total in enumerate(sums) if total > den), None)
        if bad is not None and (over is None or bad[0] <= over):
            j, i = bad
            raise TagViolation(f"entry {fmt_rat(m.rows[i][j])} violates tag {tag.value}",
                               ((k, j),))
        if over is not None:
            raise TagViolation("column sums must stay within 1 for unit tag", ((k, over),))
        mass.append((den, sums))
    if tag is SemiringTag.PCA:
        out_den, outs = _clear_denominators(out)
        scale = lcm(out_den, *(den for den, _ in mass))
        for j in range(len(out)):
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
    out: tuple
    trans: tuple  # one n x n Mat per alphabet symbol, same order

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "out", vector(self.out))
        object.__setattr__(self, "trans", tuple(self.trans))
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate alphabet symbols")
        if len(self.out) != self.n:
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
        this side's output extended by zeros."""
        if self.alphabet != other.alphabet:
            raise ValueError("automata have different alphabets")
        return LinearCoalgebra(n=self.n + other.n, alphabet=self.alphabet,
                               out=self.out + zeros(other.n),
                               trans=tuple(Mat.block_diag(a, b)
                                           for a, b in zip(self.trans, other.trans)))


@dataclass(frozen=True)
class WeightedAutomaton(LinearCoalgebra):
    """A linear coalgebra whose weights keep the rules of a semiring tag."""

    tag: SemiringTag

    def __post_init__(self):
        super().__post_init__()
        check_weights(self.tag, self.out, self.trans)

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
    """One transition: M_symbol applied to the configuration."""
    if len(x) != aut.n:
        raise ValueError("configuration has wrong length")
    return aut.mat(symbol).apply(x)


def trace(aut, x, depth):
    """All word weights out . c_w(x) for |w| <= depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    x = vector(x)
    values = {(): vdot(aut.out, x)}
    frontier = [((), x)]
    for _ in range(depth):
        nxt = []
        for word, v in frontier:
            for a in aut.alphabet:
                w = word + (a,)
                image = aut.mat(a).apply(v)
                values[w] = vdot(aut.out, image)
                nxt.append((w, image))
        frontier = nxt
    return Trace(depth, values)


def _paired(aut1, x1, aut2, x2):
    """Block-diagonal coalgebra, start vector and output difference of the
    pair: the weights agree on a word iff the difference annihilates its image."""
    if aut1.tag is not aut2.tag:
        raise ValueError("automata have different semiring tags")
    if len(x1) != aut1.n or len(x2) != aut2.n:
        raise ValueError("configuration has wrong length")
    return aut1.paired(aut2), vector(tuple(x1) + tuple(x2)), aut1.out + vneg(aut2.out)


def _letters(alphabet, word):
    return tuple(alphabet[i] for i in word)


def separating_word(aut1, x1, aut2, x2):
    """Shortest word (alphabet-order tie break) where the weights differ,
    or None when the traces agree."""
    pair, start, difference = _paired(aut1, x1, aut2, x2)
    word = first_word_off(difference, start, pair.trans)
    return None if word is None else _letters(aut1.alphabet, word)


def pair_submodule(aut1, x1, aut2, x2):
    """Closure of the paired configuration orbit, with the common coalgebra.

    Returns (generators of Z over the ring completion, d), where Z is the
    submodule generated by all word images of (x1, x2) under the paired
    transitions, and d restricts both output functionals (they agree on Z).
    Raises NotEquivalent, carrying the shortlex-least separating word, if
    they do not agree on some generator, which happens exactly when the
    traces differ.
    """
    pair, start, difference = _paired(aut1, x1, aut2, x2)
    maps = pair.trans
    if not aut1.tag.integral:
        # one closure decides and, at its first disagreeing vector, names the word
        basis = []
        for word, g in word_closure(start, maps):
            if vdot(difference, g) != 0:
                raise NotEquivalent("output functionals differ on the pair closure",
                                    word=_letters(aut1.alphabet, word))
            basis.append(g)
    else:
        basis = closure_under_maps(start, maps, "Z")
        if any(vdot(difference, g) != 0 for g in basis):
            # the lattice spans the rational closure, so the word exists
            word = first_word_off(difference, start, maps)
            raise NotEquivalent("output functionals differ on the pair closure",
                                word=_letters(aut1.alphabet, word))
    paired = WeightedAutomaton(tag=aut1.tag.completion, n=pair.n, alphabet=pair.alphabet,
                               out=pair.out, trans=pair.trans)
    return [vector(g) for g in basis], paired


@dataclass(frozen=True)
class EquivResult:
    equivalent: bool
    basis: tuple = None       # pair-closure generators when equivalent
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
    toks = r.next_keyword("semiring")
    if len(toks) != 1:
        r.error("expected exactly one semiring tag")
    try:
        tag = SemiringTag(toks[0])
    except ValueError:
        r.error(f"unknown semiring {toks[0]!r}")
    alphabet = tuple(r.next_keyword("alphabet"))
    if not alphabet:
        r.error("alphabet must not be empty")
    if len(set(alphabet)) != len(alphabet):
        r.error("duplicate alphabet symbols")
    toks = r.next_keyword("states")
    if len(toks) != 1:
        r.error("expected exactly one state count")
    n = r.parse_int(toks[0], minimum=1)
    out = r.parse_rats(r.next_keyword("output"), n)
    # the line of each (letter index, state) cell, None standing for the output
    lines = {(None, j): r.last_line for j in range(n)}
    trans = {}
    state = None
    while r:
        toks = r.next_tokens()
        if toks[0] == "trans":
            if len(toks) != 2:
                r.error("expected: trans <symbol>")
            sym = toks[1]
            if sym not in alphabet:
                r.error(f"unknown symbol {sym!r}")
            if sym in trans:
                r.error(f"duplicate transition block for {sym!r}")
            rows = []
            for j in range(n):
                rows.append(r.next_rat_row(n))
                lines[alphabet.index(sym), j] = r.last_line
            # file rows are images of basis vectors; columns internally
            trans[sym] = Mat(rows).transpose()
        elif toks[0] == "state":
            if state is not None:
                r.error("duplicate state line")
            state = r.parse_rats(toks[1:], n)
            for q in state:
                if not tag.scalar_ok(q):
                    r.error(f"state entry {fmt_rat(q)} violates tag {tag.value}")
            # the endpoint carrier of the subconvex tags is the subsimplex
            total = sum(state)
            if tag in (SemiringTag.UNIT, SemiringTag.PCA) and total > 1:
                r.error(f"state entries sum to {fmt_rat(total)}, above 1 for tag {tag.value}")
        else:
            r.error(f"unexpected directive {toks[0]!r}")
    missing = [a for a in alphabet if a not in trans]
    if missing:
        r.error(f"missing transition block for {missing[0]!r}")
    try:
        aut = WeightedAutomaton(tag=tag, n=n, alphabet=alphabet, out=out,
                                trans=tuple(trans[a] for a in alphabet))
    except TagViolation as exc:
        # reported where reading the file top down first shows the fault
        raise ParseError(source, max(lines[c] for c in exc.cells), str(exc)) from None
    return aut, state


def automaton_to_text(aut, state=None):
    lines = [f"semiring {aut.tag.value}",
             "alphabet " + " ".join(aut.alphabet),
             f"states {aut.n}",
             "output " + fmt_vec(aut.out)]
    for a in aut.alphabet:
        lines.append(f"trans {a}")
        m = aut.mat(a).transpose()  # rows back to images of basis vectors
        for row in m.rows:
            lines.append(fmt_vec(row))
    if state is not None:
        lines.append("state " + fmt_vec(state))
    return "\n".join(lines) + "\n"
