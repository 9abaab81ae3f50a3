"""Text formats: rational literals and strict line-oriented file parsing.

Every file format in the package uses the same scalar syntax: an optional
sign, an integer, and optionally ``/`` followed by a positive integer
("3", "-1/2"), written in ASCII decimal digits.  There is no floating point
anywhere.  Lines end at a line feed alone; spaces and tabs alone separate
tokens, and other whitespace in a line, outside a comment, is an error.

A `LineReader` reads one file and owns a literal table for it: each distinct
literal text is parsed once, and a row of literals becomes one tuple of
lookups.  Only a row with a token the table lacks goes through `parse_rat`
token by token, which names the first bad token.  A block of rows (a
matrix, column by column) is also given as integers over the least common
denominator of its entries: the table keeps each block literal's numerator
and denominator in lowest terms beside its `Fraction`, read once per file.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import itemgetter

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


def parse_rat(token):
    """Parse a rational literal. Raises ValueError on anything else."""
    match = _RAT_RE.match(token)
    if not match:
        raise ValueError(f"not a rational literal: {token!r}")
    num, den = match.groups()
    if den is None:
        return Fraction(int(num))
    if int(den) == 0:
        raise ValueError(f"zero denominator: {token!r}")
    return Fraction(int(num), int(den))


def fmt_rat(value):
    """Canonical text for a rational; parse_rat(fmt_rat(x)) == x.  A Fraction
    or int already prints canonically; bools and other rationals go through
    Fraction ("1", not "True")."""
    if type(value) is Fraction or type(value) is int:
        return str(value)
    return str(Fraction(value))


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
        self._rats = {}  # literal text -> Fraction, for this file only
        # literal text of a block entry -> that Fraction's numerator, and its
        # denominator, filled by the first block that holds the literal
        self._nums, self._dens = {}, {}

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

    def next_tokens(self, expect=None):
        return self.next_line(expect).split()

    def next_keyword(self, keyword):
        """Consume a line that must start with `keyword`; return the rest tokens."""
        toks = self.next_tokens(expect=keyword)
        if toks[0] != keyword:
            self.error(f"expected {keyword!r}, got {toks[0]!r}")
        return toks[1:]

    def parse_rats(self, tokens, count=None):
        if count is not None and len(tokens) != count:
            self.error(f"expected {count} rationals, got {len(tokens)}")
        rats = self._rats
        try:
            return tuple(map(rats.__getitem__, tokens))
        except KeyError:
            pass
        for t in tokens:
            if t not in rats:
                try:
                    rats[t] = parse_rat(t)
                except ValueError as exc:
                    self.error(str(exc))
        return tuple(map(rats.__getitem__, tokens))

    def parse_int(self, token, minimum=None):
        if not _INT_RE.match(token):
            self.error(f"expected an integer, got {token!r}")
        value = int(token)
        if minimum is not None and value < minimum:
            self.error(f"expected an integer >= {minimum}, got {value}")
        return value

    def next_rat_row(self, count):
        return self.next_rat_column(count)[0]

    def next_rat_column(self, count):
        """The next row of `count` rationals, with its tokens for
        `scaled_block`."""
        if self._pos == len(self._items):
            self.next_line(f"{count} rationals")  # raises: the file ends here
        tokens = self.next_tokens()
        return self.parse_rats(tokens, count), tokens

    def scaled_block(self, token_rows):
        """Rows of literals that `next_rat_column` read, as (d, integer
        rows): d the least common denominator of all entries, and d times
        each entry.  Each distinct literal of the block is scaled once."""
        distinct = set().union(*token_rows)
        nums, dens = self._nums, self._dens
        for t in distinct.difference(nums):
            nums[t], dens[t] = self._rats[t].as_integer_ratio()
        den = lcm(*map(dens.__getitem__, distinct))
        if den != 1:
            nums = {t: nums[t] * (den // dens[t]) for t in distinct}
        # itemgetter of one key gives the value, not a tuple
        return den, [itemgetter(*row)(nums) if len(row) > 1 else
                     tuple(map(nums.__getitem__, row)) for row in token_rows]
