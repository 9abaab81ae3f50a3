"""The per-token row reader, kept as the differential oracle of
`LineReader.parse_rats`.

The reader converts a row through a literal table it owns for one file and
scans token by token only when a row has a token the table lacks.  This is
the path it replaced: the count check, then one `parse_rat` per token, the
first failure raised as a `ParseError` at the row's line.
"""

from wazz.formats import ParseError, parse_rat


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
