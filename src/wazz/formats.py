"""Text formats: rational literals and strict line-oriented file parsing.

Every file format in the package uses the same scalar syntax: an optional
sign, an integer, and optionally ``/`` followed by a positive integer
("3", "-1/2"), written in ASCII decimal digits.  There is no floating point
anywhere.  Lines end at a line feed alone; spaces and tabs alone separate
tokens, and other whitespace in a line, outside a comment, is an error.

A `LineReader` reads one file in one pass: its constructor splits each
meaningful line into tokens once, and the readers walk that list by index.
It keeps one table for the file from literal text to its numerator and
denominator in lowest terms, each distinct literal parsed at its first
lookup.  A vector row (`row`) is one loop of lookups into a scaled vector
(d, ints) in lowest terms (`wazz.linalg`), and a matrix block (`block`,
column by column) one loop of lookups per line into a `Mat`, both on the
table's integers, with no `Fraction`.  Every diagnostic is raised where it
is found, at its line.  The writers print a vector (`fmt_vec`) and a block
(`block_lines`) from their integers: a / d in lowest terms as `str` of
integers, the text of `str(Fraction(a, d))`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

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
    """The entries of the scaled vector v = (d, ints), each as `fmt_ratio`:
    `str` of each integer when d = 1."""
    den, ints = v
    if den == 1:
        return " ".join(map(str, ints))
    return " ".join([fmt_ratio(a, den) for a in ints])


def word_text(word, alphabet):
    """A word as printed: "eps" when empty, letters run together when all
    symbols are one character, else separated by spaces."""
    if not word:
        return "eps"
    return ("" if all(len(a) == 1 for a in alphabet) else " ").join(word)


class _Table(dict):
    """A dict that fills a missing key k with make(k) at its first lookup."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


class LineReader:
    """The meaningful lines of one text, each split into tokens once, and one
    table, for this file only, from literal text to its numerator and
    denominator in lowest terms.

    Lines end at a line feed alone; the strip that trims each line also
    drops the carriage return of a CRLF file.  Comments start with '#' and
    run to end of line; blank lines are skipped.  `lines` holds the (line
    number, tokens) of every other line, and a reader walks it by index.
    Each diagnostic is raised at the line it is about.
    """

    def __init__(self, text, source="<input>"):
        self.source = source
        self.lines, texts = [], []
        for i, raw in enumerate(text.split("\n"), start=1):
            if "#" in raw:
                raw = raw[:raw.index("#")]
            if not raw.isprintable():  # a printable line has no whitespace but spaces
                raw = raw.strip(" \t\r")
                if not raw.isprintable() and (m := _OTHER_SPACE.search(raw)):
                    raise ParseError(source, i,
                                     f"whitespace other than space or tab: {m.group()!r}")
            if toks := raw.split():
                self.lines.append((i, toks))
                texts.append(raw)
        # each distinct literal parsed once, at its first lookup (a bad one
        # raises ValueError there)
        self.ratios = _Table(parse_ratio)
        self._texts = texts  # the text of each of `lines`
        self._blocks = {}  # (nrows, ncols, the texts of a block's lines) -> its matrix

    def error(self, line, message):
        raise ParseError(self.source, line, message)

    def at(self, k, expect=None):
        """(line number, tokens) of meaningful line k; past the last one, the
        error at the line after it."""
        if k < len(self.lines):
            return self.lines[k]
        self.error(self.lines[k - 1][0] + 1 if k else 1, "unexpected end of input"
                   if expect is None else f"unexpected end of input, expected {expect}")

    def keyword(self, k, keyword):
        """Meaningful line k, which must start with `keyword`."""
        line, toks = self.at(k, keyword)
        if toks[0] != keyword:
            self.error(line, f"expected {keyword!r}, got {toks[0]!r}")
        return line, toks

    def integer(self, token, line, minimum=None):
        if not _INT_RE.match(token):
            self.error(line, f"expected an integer, got {token!r}")
        try:
            value = int(token)
        except ValueError as exc:  # past the interpreter's bound on an integer's digits
            self.error(line, str(exc))
        if minimum is not None and value < minimum:
            self.error(line, f"expected an integer >= {minimum}, got {value}")
        return value

    def row(self, line, toks, count, start=1):
        """The `count` literals toks[start:] (past a keyword, by default) as a
        scaled vector, the table's integers over their lcm denominator (in
        lowest terms, as the literals are); a bad literal fails at the line."""
        if len(toks) - start != count:
            self.error(line, f"expected {count} rationals, got {len(toks) - start}")
        try:
            ratios = list(map(self.ratios.__getitem__, toks[start:]))
        except ValueError as exc:
            self.error(line, str(exc))
        den = lcm(*{d for _, d in ratios})
        return den, tuple([a * (den // d) for a, d in ratios])

    def block(self, k, nrows, ncols):
        """The nrows x ncols matrix on the ncols meaningful lines from k, line
        k + j being column j (the image of basis vector j): the table's
        integers over their lcm denominator, coprime to them as the literals
        are in lowest terms, with no `Fraction`.  A matrix of height 0 has no
        lines.  Lines repeating an earlier block give its matrix again."""
        if not nrows:
            return Mat._of_cols(1, [()] * ncols, 0)
        key = nrows, ncols, tuple(self._texts[k:k + ncols])
        if (m := self._blocks.get(key)) is not None:
            return m
        entry, cols = self.ratios.__getitem__, []
        for line, toks in self.lines[k:k + ncols]:
            if len(toks) != nrows:
                self.error(line, f"expected {nrows} rationals, got {len(toks)}")
            try:
                cols.append(list(map(entry, toks)))
            except ValueError as exc:
                self.error(line, str(exc))
        if len(cols) < ncols:
            self.at(k + len(cols), f"{nrows} rationals")
        den = lcm(*{d for col in cols for _, d in col})
        self._blocks[key] = m = Mat._of_cols(den, [[a * (den // d) for a, d in col]
                                                   for col in cols], nrows)
        return m
