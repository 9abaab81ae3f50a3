"""Text formats: rational literals and strict line-oriented file parsing.

Every file format in the package uses the same scalar syntax: an optional
sign, an integer, and optionally ``/`` followed by a positive integer
("3", "-1/2"), written in ASCII decimal digits.  There is no floating point
anywhere.  Lines end at a line feed alone; spaces and tabs alone separate
tokens, and other whitespace in a line, outside a comment, is an error.

A `LineReader` reads one file and owns literal tables for it: each distinct
literal text is parsed once, to its numerator and denominator in lowest
terms, and only a row with a token the tables lack is scanned token by
token, which names the first bad token.  A vector row is a tuple of
`Fraction`s, one per distinct literal.  A matrix block (`next_matrix`,
column by column) is a `Mat` on the tables' integers, with no `Fraction`;
a block whose lines repeat an earlier one is that `Mat` again.  The writers
print a block from its integers (`block_lines`): a / d in lowest terms as
`str` of integers, the text of `str(Fraction(a, d))`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .linalg import Mat

_RAT_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_OTHER_SPACE = re.compile(r"[^\S \t]")  # whitespace but " " and "\t", all unprintable


class ParseError(Exception):
    """Parse failure, carrying the source name and 1-based line number."""

    def __init__(self, source, line, message):
        self.source = source
        self.line = line
        self.message = message
        super().__init__(f"{source}:{line}: {message}")


def parse_ratio(token):
    """The numerator and denominator (> 0) of a rational literal in lowest
    terms, as integers.  Raises ValueError on anything else."""
    match = _RAT_RE.match(token)
    if not match:
        raise ValueError(f"not a rational literal: {token!r}")
    num, den = match.groups()
    if den is None:
        return int(num), 1
    if (den := int(den)) == 0:
        raise ValueError(f"zero denominator: {token!r}")
    g = gcd(num := int(num), den)
    return num // g, den // g


def parse_rat(token):
    """Parse a rational literal. Raises ValueError on anything else."""
    return Fraction(*parse_ratio(token))


def fmt_rat(value):
    """Canonical text for a rational; parse_rat(fmt_rat(x)) == x.  A Fraction
    or int already prints canonically; bools and other rationals go through
    Fraction ("1", not "True")."""
    if type(value) is Fraction or type(value) is int:
        return str(value)
    return str(Fraction(value))


def fmt_ratio(num, den):
    """`fmt_rat(Fraction(num, den))`, den > 0, from the integers alone."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def block_lines(m):
    """The lines of a matrix block, one per column (the image of a basis
    vector), printed from the matrix's integers."""
    den, rows = m.scaled()
    cols = [["0"] * len(rows) for _ in range(m.ncols)]
    for i, (js, nums) in enumerate(rows):
        for j, a in zip(js, nums):
            cols[j][i] = fmt_ratio(a, den)
    return [" ".join(col) for col in cols]


def fmt_vec(v):
    return " ".join(map(fmt_rat, v))


def word_text(word, alphabet):
    """A word as printed: "eps" when empty, letters run together when all
    symbols are one character, else separated by spaces."""
    if not word:
        return "eps"
    return ("" if all(len(a) == 1 for a in alphabet) else " ").join(word)


class LineReader:
    """Iterates meaningful lines of a text body, tracking line numbers.

    Lines end at a line feed alone; the strip that trims each line also
    drops the carriage return of a CRLF file.  Comments start with '#' and
    run to end of line; blank lines are skipped.
    """

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
        # for this file only: literal text -> its numerator, and its
        # denominator, in lowest terms; the Fraction of a vector entry
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
        """The line numbers of the last `count` lines read."""
        return [i for i, _ in self._items[self._pos - count:self._pos]]

    def next_tokens(self, expect=None):
        return self.next_line(expect).split()

    def next_keyword(self, keyword):
        """Consume a line that must start with `keyword`; return the rest tokens."""
        toks = self.next_tokens(expect=keyword)
        if toks[0] != keyword:
            self.error(f"expected {keyword!r}, got {toks[0]!r}")
        return toks[1:]

    def _enter(self, tokens, count):
        """The tokens of a row, its length checked and each literal the
        tables lack entered; the first bad token fails at the row's line."""
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
        """The next nrows x ncols matrix: ncols lines (the images of basis
        vectors) of nrows rationals, read as by `next_rat_row` into the
        tables' integers over their lcm denominator, coprime to them as the
        literals are in lowest terms; no Fraction.  Lines repeating an
        earlier block give its matrix again; a matrix of height 0 has none."""
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
        # itemgetter of one key gives the value, not a tuple
        cols = [itemgetter(*line)(nums) if nrows > 1 else (nums[line[0]],) for line in lines]
        self._blocks[key] = m = Mat._of_cols(den, cols, nrows)
        return m
