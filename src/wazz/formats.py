"""Text formats: rational literals and strict line-oriented file parsing.

Every file format in the package uses the same scalar syntax: an optional
sign, an integer, and optionally ``/`` followed by a positive integer
("3", "-1/2").  There is no floating point anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RAT_RE = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


class ParseError(Exception):
    """Parse failure, carrying the source name and 1-based line number."""

    def __init__(self, source, line, message):
        self.source = source
        self.line = line
        self.message = message
        super().__init__(f"{source}:{line}: {message}")


def parse_rat(token):
    """Parse a rational literal. Raises ValueError on anything else."""
    if not _RAT_RE.match(token):
        raise ValueError(f"not a rational literal: {token!r}")
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {token!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def fmt_rat(value):
    """Canonical text for a rational; parse_rat(fmt_rat(x)) == x.  A Fraction
    or int already prints canonically; bools and other rationals go through
    Fraction ("1", not "True")."""
    if type(value) is Fraction or type(value) is int:
        return str(value)
    return str(Fraction(value))


def fmt_vec(v):
    return " ".join(fmt_rat(x) for x in v)


def word_text(word, alphabet):
    """A word as printed: "eps" when empty, letters run together when all
    symbols are one character, else separated by spaces."""
    if not word:
        return "eps"
    return ("" if all(len(a) == 1 for a in alphabet) else " ").join(word)


class LineReader:
    """Iterates meaningful lines of a text body, tracking line numbers.

    Comments start with '#' and run to end of line; blank lines are skipped.
    """

    def __init__(self, text, source="<input>"):
        self.source = source
        self._items = []
        for i, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self._items.append((i, line))
        self._pos = 0
        self.last_line = 0

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
        out = []
        for t in tokens:
            try:
                out.append(parse_rat(t))
            except ValueError as exc:
                self.error(str(exc))
        return tuple(out)

    def parse_int(self, token, minimum=None):
        try:
            value = int(token)
        except ValueError:
            self.error(f"expected an integer, got {token!r}")
        if minimum is not None and value < minimum:
            self.error(f"expected an integer >= {minimum}, got {value}")
        return value

    def next_rat_row(self, count):
        return self.parse_rats(self.next_tokens(expect=f"{count} rationals"), count)
