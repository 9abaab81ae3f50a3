"""The line-by-line readers, kept as the differential oracle of
`formats.LineReader` and of the readers built on it.

The reader splits every line of a file into tokens once, in its
constructor, and `parse_automaton` and `parse_zigzag` walk that list by
index.  This is the route they replaced: a cursor that splits one line per
`next_line`/`next_tokens`/`next_keyword` call, a row reader (`_enter`,
`parse_rats`) that scans token by token only when a row has a literal the
tables lack, `next_matrix` with its cache of repeated blocks, and the two
readers on top of them, line for line as they were, reading `Fraction`
rows that become scaled vectors (`wazz.linalg.scaled`) as the records take
them.  Below them is the
per-token row reader that the cursor's row reader itself replaced: the
count check, then one `parse_rat` per token, the first failure raised as a
`ParseError` at the row's line.
"""

from fractions import Fraction
from math import lcm
from operator import itemgetter

from wazz.automata import LinearCoalgebra, SemiringTag, TagViolation, WeightedAutomaton
from wazz.formats import _INT_RE, _OTHER_SPACE, ParseError, fmt_rat, parse_rat, parse_ratio
from wazz.linalg import Mat, _clear_denominators, scaled
from wazz.zigzag import CUBIC, GHAT, KINDS, Morphism, ZigZag, ZigZagNode

from weights_oracle import scalar_ok


def parse_rats(source, line, tokens, count=None):
    if count is not None and len(tokens) != count:
        raise ParseError(source, line, f"expected {count} rationals, got {len(tokens)}")
    out = []
    for t in tokens:
        try:
            out.append(parse_rat(t))
        except ValueError as exc:
            raise ParseError(source, line, str(exc)) from None
    return tuple(out)


class LineReader:
    """Iterates meaningful lines of a text body, tracking line numbers."""

    def __init__(self, text, source="<input>"):
        self.source = source
        self._items = []
        for i, raw in enumerate(text.split("\n"), start=1):
            line = raw.split("#", 1)[0].strip(" \t\r")
            if not line.isprintable() and (m := _OTHER_SPACE.search(line)):
                raise ParseError(source, i, f"whitespace other than space or tab: {m.group()!r}")
            if line:
                self._items.append((i, line))
        self._pos = 0
        self.last_line = 0
        self._nums, self._dens, self._rats = {}, {}, {}
        self._blocks = {}  # (nrows, ncols, the lines of a block) -> its matrix

    def __bool__(self):
        return self._pos < len(self._items)

    def error(self, message, line=None):
        raise ParseError(self.source, self.last_line if line is None else line, message)

    def next_line(self, expect=None):
        if self._pos >= len(self._items):
            raise ParseError(self.source, self.last_line + 1, "unexpected end of input"
                             if expect is None else f"unexpected end of input, expected {expect}")
        lineno, line = self._items[self._pos]
        self._pos += 1
        self.last_line = lineno
        return line

    def lines_read(self, count):
        return [i for i, _ in self._items[self._pos - count:self._pos]]

    def next_tokens(self, expect=None):
        return self.next_line(expect).split()

    def next_keyword(self, keyword):
        toks = self.next_tokens(expect=keyword)
        if toks[0] != keyword:
            self.error(f"expected {keyword!r}, got {toks[0]!r}")
        return toks[1:]

    def _enter(self, tokens, count):
        if count is not None and len(tokens) != count:
            self.error(f"expected {count} rationals, got {len(tokens)}")
        nums = self._nums
        if not all(map(nums.__contains__, tokens)):
            for t in tokens:
                if t not in nums:
                    try:
                        nums[t], self._dens[t] = parse_ratio(t)
                    except ValueError as exc:
                        self.error(str(exc))
        return tokens

    def parse_rats(self, tokens, count=None):
        self._enter(tokens, count)
        rats = self._rats
        try:
            return tuple(map(rats.__getitem__, tokens))
        except KeyError:
            for t in tokens:
                if t not in rats:
                    rats[t] = Fraction(self._nums[t], self._dens[t])
            return tuple(map(rats.__getitem__, tokens))

    def parse_int(self, token, minimum=None):
        if not _INT_RE.match(token):
            self.error(f"expected an integer, got {token!r}")
        value = int(token)
        if minimum is not None and value < minimum:
            self.error(f"expected an integer >= {minimum}, got {value}")
        return value

    def next_rat_row(self, count):
        return self.parse_rats(self.next_tokens(f"{count} rationals"), count)

    def next_matrix(self, nrows, ncols):
        if not nrows:
            return Mat._of_cols(1, [()] * ncols, 0)
        key = nrows, ncols, tuple(line for _, line in self._items[self._pos:self._pos + ncols])
        if key in self._blocks:
            self._pos += ncols
            self.last_line = self._items[self._pos - 1][0]
            return self._blocks[key]
        lines = [self._enter(self.next_tokens(f"{nrows} rationals"), nrows) for _ in range(ncols)]
        nums, dens = self._nums, self._dens
        distinct = set().union(*lines)
        den = lcm(*map(dens.__getitem__, distinct))
        if den != 1:
            nums = {t: nums[t] * (den // dens[t]) for t in distinct}
        cols = [itemgetter(*line)(nums) if nrows > 1 else (nums[line[0]],) for line in lines]
        self._blocks[key] = m = Mat._of_cols(den, cols, nrows)
        return m


def parse_automaton(text, source="<automaton>"):
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
            trans[sym] = r.next_matrix(n, n)
            lines.update(zip([(alphabet.index(sym), j) for j in range(n)], r.lines_read(n)))
        elif toks[0] == "state":
            if state is not None:
                r.error("duplicate state line")
            state = r.parse_rats(toks[1:], n)
            for q in state:
                if not scalar_ok(tag, q):
                    r.error(f"state entry {fmt_rat(q)} violates tag {tag.value}")
            if tag.within_one:
                den, nums = _clear_denominators(state)
                if (total := sum(nums)) > den:
                    r.error(f"state entries sum to {fmt_rat(Fraction(total, den))}, "
                            f"above 1 for tag {tag.value}")
        else:
            r.error(f"unexpected directive {toks[0]!r}")
    missing = [a for a in alphabet if a not in trans]
    if missing:
        r.error(f"missing transition block for {missing[0]!r}")
    try:
        aut = WeightedAutomaton(tag=tag, n=n, alphabet=alphabet, out=scaled(out),
                                trans=tuple(trans[a] for a in alphabet))
    except TagViolation as exc:
        raise ParseError(source, max(lines[c] for c in exc.cells), str(exc)) from None
    return aut, None if state is None else scaled(state)


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
        gens = [scaled(r.next_rat_row(dim)) for _ in range(ngens)]
        out = scaled(r.parse_rats(r.next_keyword("out"), dim))
        trans = []
        for a in alphabet:
            toks = r.next_keyword("trans")
            if toks != [a]:
                r.error(f"expected transition block for {a!r}")
            trans.append(r.next_matrix(dim, dim))
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
        matrix = r.next_matrix(nodes[dst].dim, nodes[src].dim)
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
        relating.append((idx, scaled(r.parse_rats(toks[1:], nodes[idx].dim))))
    left = scaled(r.parse_rats(r.next_keyword("left"), nodes[0].dim))
    right = scaled(r.parse_rats(r.next_keyword("right"), nodes[-1].dim))
    if r:
        r.error("trailing input after witness")
    return ZigZag(functor=functor, tag=tag, alphabet=alphabet, nodes=tuple(nodes),
                  morphisms=tuple(morphisms), relating=tuple(relating),
                  endpoints=(left, right))
