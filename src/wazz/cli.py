"""Command-line front end.

Exit codes: 0 for success or a positive verdict, 1 for a negative result
(not equivalent, invalid witness, empty polyhedron), 2 for usage or parse
errors and for a `gauge` whose facet enumeration overran its budget, 3 for
an internal error (a bug, reported as `internal error: ...` on stderr), 4
for an answer with a number of over MAX_DIGITS digits, the bound on an
integer's text while `main` runs (a longer literal is a parse error).
Output uses exact rational literals throughout.

An argv is read by one of two routes, to the same namespace.  The direct
route (`_read_direct`) takes an argv that names a command and then holds
exactly its positionals, in one run, with each option at most once as a
separate `--name value` or `-o value` pair and no other token starting
with `-`; it reads the positional order, option strings, types, defaults
and `func` that `build_parser` took from that command's own parser.  Every
other argv, and one whose value a type or `choices` rejects, goes to
argparse, so every usage error and help text is argparse's own.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from .automata import NotEquivalent, SemiringTag, equivalent, parse_automaton, trace
from .formats import LineReader, ParseError, fmt_rat, fmt_ratio, fmt_vec, parse_rat, word_text
from .hilbert import hilbert_basis
from .linalg import Mat, scaled, unit
from .polyhedra import (INFINITY, InternalError, SearchBudgetExceeded, dd_h_to_v,
                        dd_v_to_h, gauge, hrep_to_text, parse_hrep, parse_pca_polytope,
                        parse_vrep, vrep_to_text)
from .zigzag import cubic_zigzag, ghat_zigzag, parse_zigzag, verify_zigzag, zigzag_to_text

MAX_DIGITS = 100_000  # Python's default is 4300; a 100000-digit number prints in 0.2 s
TRACE_LETTERS = 2_000_000  # the most letters the words `trace` lists may hold in all:
# 131071 words to depth 16 over two letters, 2000 words to depth 1999 over one


def _read(path):
    """The file's text, its bytes read in one unbuffered call and decoded as
    UTF-8 once, nothing else translated: a lone carriage return stays in
    the text, where the readers reject it, as lines end at a line feed
    alone.  A byte that is not UTF-8 fails at its line."""
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc.strerror}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, data.count(b"\n", 0, exc.start) + 1,
                         f"not UTF-8: {exc.reason} at byte {exc.start}") from None


def _pick_state(aut, state, index, path):
    if index is not None:
        if not 1 <= index <= aut.n:
            raise ParseError(path, 0, f"state index {index} out of range 1..{aut.n}")
        return unit(aut.n, index - 1)
    if state is not None:
        return state
    return unit(aut.n, 0)


def _load_pair(args):
    """Both automata of `equiv` and `zigzag`, which must agree in tag and
    alphabet, with their chosen states."""
    aut1, state1 = parse_automaton(_read(args.left), args.left)
    aut2, state2 = parse_automaton(_read(args.right), args.right)
    if aut1.tag is not aut2.tag:
        raise ParseError(args.right, 0,
                         f"semiring mismatch: {aut1.tag.value} vs {aut2.tag.value}")
    if aut1.alphabet != aut2.alphabet:
        raise ParseError(args.right, 0, "alphabet mismatch")
    x1 = _pick_state(aut1, state1, args.left_state, args.left)
    x2 = _pick_state(aut2, state2, args.right_state, args.right)
    return aut1, x1, aut2, x2


def _trace_size(letters, depth):
    """(words, letters in them) of a trace to `depth` over `letters` letters,
    counted to length 64 at most: past it, two lower bounds."""
    if letters == 1:
        return depth + 1, depth * (depth + 1) // 2
    powers = [letters ** length for length in range(min(depth, 64) + 1)]
    return sum(powers), sum(length * p for length, p in enumerate(powers))


def _cmd_trace(args):
    aut, state = parse_automaton(_read(args.automaton), args.automaton)
    x = _pick_state(aut, state, args.state_index, args.automaton)
    depth = args.depth if args.depth is not None else aut.n
    words, size = _trace_size(len(aut.alphabet), depth)
    if size > TRACE_LETTERS:
        more = "at least " if depth > 64 and len(aut.alphabet) > 1 else ""
        raise ValueError(f"a trace to depth {depth} lists {more}{words} words, {more}{size} "
                         f"letters in all, past {TRACE_LETTERS}; give a smaller --depth")
    tr = trace(aut, x, depth)
    for word, value in tr.items():
        print(f"{word_text(word, aut.alphabet)} {fmt_rat(value)}")
    return 0


def _cmd_equiv(args):
    aut1, x1, aut2, x2 = _load_pair(args)
    result = equivalent(aut1, x1, aut2, x2)
    if result.equivalent:
        lines = ["EQUIVALENT", f"pair closure generated by {len(result.basis)} elements:"]
        lines += ["  " + fmt_vec(g) for g in result.basis]
        print("\n".join(lines))
        return 0
    print(f"NOT EQUIVALENT, separating word: {word_text(result.word, aut1.alphabet)}")
    return 1


def _cmd_zigzag(args):
    aut1, x1, aut2, x2 = _load_pair(args)
    builder = ghat_zigzag if aut1.tag is SemiringTag.PCA else cubic_zigzag
    try:
        witness = builder(aut1, x1, aut2, x2)
    except NotEquivalent as exc:
        print(f"NOT EQUIVALENT, separating word: {word_text(exc.word, aut1.alphabet)}")
        return 1
    text = zigzag_to_text(witness)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(args.output, 0, f"cannot write file: {exc.strerror}") from None
        print(f"witness with {len(witness.nodes)} nodes written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args):
    if (args.left is None) != (args.right is None):
        raise ValueError("verify takes the witness alone or with both input automata")
    if args.left is None and (args.left_state is not None or args.right_state is not None):
        raise ValueError("--left-state and --right-state need the input automata")
    witness = parse_zigzag(_read(args.witness), args.witness)
    inputs = None
    if args.left is not None:
        aut1, x1, aut2, x2 = _load_pair(args)
        inputs = ((aut1, x1), (aut2, x2))
    report = verify_zigzag(witness, inputs)
    if report.valid:
        print(f"VALID ({len(report.checks)} checks passed)")
        return 0
    print(f"INVALID ({len(report.failures())} of {len(report.checks)} checks failed)")
    for c in report.failures():
        detail = f": {c.detail}" if c.detail else ""
        print(f"  {c.name}{detail}")
    return 1


def _cmd_hilbert(args):
    r = LineReader(_read(args.cone), args.cone)
    line, toks = r.at(0, "dimension line: <k> <m>")
    if len(toks) != 2:
        r.error(line, "expected dimension line: <k> <m>")
    k = r.integer(toks[0], line, minimum=1)
    m = r.integer(toks[1], line, minimum=1)
    rows = []
    for i in range(1, k + 1):
        line, toks = r.at(i, f"{m} integers")
        den, row = r.row(line, toks, m, start=0)
        if den != 1:  # lowest terms: some entry is not an integer
            r.error(line, f"entry {fmt_ratio(next(a for a in row if a % den), den)} "
                          "must be an integer")
        rows.append(row)
    if len(r.lines) > k + 1:
        r.error(r.lines[k + 1][0], "trailing input after the constraint matrix")
    for g in hilbert_basis(Mat(rows)):
        print(" ".join(str(a) for a in g))
    return 0


def _cmd_polytope(args):
    text = _read(args.file)
    if args.direction == "tovertices":
        v = dd_h_to_v(parse_hrep(text, args.file))
        if v.is_empty:
            print("empty")
            return 1
        sys.stdout.write(vrep_to_text(v))
        return 0
    h = dd_v_to_h(parse_vrep(text, args.file))
    sys.stdout.write(hrep_to_text(h))
    return 0


def _cmd_gauge(args):
    polytope = parse_pca_polytope(_read(args.polytope), args.polytope)
    try:
        x = scaled([parse_rat(t) for t in args.point])
    except ValueError as exc:
        raise ParseError("<point>", 0, str(exc)) from None
    if len(x[1]) != polytope.dim:
        raise ParseError("<point>", 0,
                         f"expected {polytope.dim} coordinates, got {len(x[1])}")
    value = gauge(polytope, x)
    print("inf" if value is INFINITY else fmt_rat(value))
    return 0


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once: each `parse_args` fills a fresh
    namespace, so no option of one call reaches the next.  `commands` maps
    each command name to its own parser."""
    parser = argparse.ArgumentParser(
        prog="wazz",
        description="Exact trace equivalence of weighted automata with "
                    "machine-checkable zig-zag witnesses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="print the trace table of a configuration")
    p.add_argument("automaton")
    p.add_argument("--state-index", type=int, default=None,
                   help="1-based basis vector to start from (default: the "
                        "file's state line, else e_1)")
    p.add_argument("--depth", type=int, default=None,
                   help="maximum word length (default: the state count)")
    p.set_defaults(func=_cmd_trace)

    for name, func, text in (("equiv", _cmd_equiv, "decide trace equivalence"),
                             ("zigzag", _cmd_zigzag, "construct a zig-zag witness"),
                             ("verify", _cmd_verify, "independently re-check a witness file")):
        p = sub.add_parser(name, help=text)
        optional = {}
        if name == "verify":  # given both automata, it checks the witness is about them
            p.add_argument("witness")
            optional = {"nargs": "?", "default": None}
        p.add_argument("left", **optional)
        p.add_argument("right", **optional)
        p.add_argument("--left-state", type=int, default=None,
                       help="1-based basis state for the left automaton")
        p.add_argument("--right-state", type=int, default=None,
                       help="1-based basis state for the right automaton")
        if name == "zigzag":
            p.add_argument("-o", "--output", default=None,
                           help="write the witness to this file")
        p.set_defaults(func=func)

    p = sub.add_parser("hilbert", help="Hilbert basis of an integer cone x.W >= 0")
    p.add_argument("cone", help="file: one line '<k> <m>', then k rows of W")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("polytope", help="double description conversions")
    p.add_argument("direction", choices=("tovertices", "tofacets"))
    p.add_argument("file")
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("gauge", help="Minkowski functional of a subconvex hull")
    p.add_argument("polytope")
    p.add_argument("point", nargs="*", help="rational coordinates")
    p.set_defaults(func=_cmd_gauge)

    parser.commands = sub.choices
    parser.grammars = {name: _grammar(command) for name, command in sub.choices.items()}
    return parser


def _grammar(command):
    """What `_read_direct` reads of a command parser's own actions: its
    positionals in order, how many of them lead as required ones, its
    options by option string, and the namespace of its defaults; None when
    an action is of a kind it does not read (`nargs="*"`)."""
    positionals, options = [], {}
    defaults = dict(command._defaults)
    for action in command._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if type(action) is not argparse._StoreAction or action.nargs not in (None, "?"):
            return None
        defaults[action.dest] = action.default
        if action.option_strings:
            options.update(dict.fromkeys(action.option_strings, action))
        else:
            positionals.append(action)
    return positionals, sum(action.nargs is None for action in positionals), options, defaults


def _value(action, text):
    """The value argparse stores for `text`; ValueError where argparse
    would report an error."""
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"invalid choice: {value!r}")
    return value


def _read_direct(grammar, argv):
    """The namespace `command.parse_known_args(argv)[0]` gives, for the
    arguments after a command's name in the form the module docstring
    states; None for any other argv, and for a command without a grammar,
    which argparse then reads."""
    if grammar is None:
        return None
    positionals, required, options, defaults = grammar
    values = dict(defaults)
    given, seen, run = [], set(), None  # run: where the positionals' run ended
    i, end = 0, len(argv)
    try:
        while i < end:
            token = argv[i]
            if token[:1] != "-":
                if given and run != i:
                    return None
                given.append(token)
                i = run = i + 1
                continue
            action = options.get(token)
            if action is None or action.dest in seen or i + 1 == end or argv[i + 1][:1] == "-":
                return None
            seen.add(action.dest)
            values[action.dest] = _value(action, argv[i + 1])
            i += 2
        if not required <= len(given) <= len(positionals):
            return None
        for action, token in zip(positionals, given):
            values[action.dest] = _value(action, token)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    return argparse.Namespace(**values)


def _parse_args(argv):
    """The namespace of argv.  The direct route reads an argv of the form
    the module docstring states.  Else a command's own parser reads the
    arguments after its name, as the top-level parser would hand them
    over; the top-level parser reads argv when it names no command, and
    again when arguments are left over, so that every usage error keeps
    its text."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        if (args := _read_direct(parser.grammars[argv[0]], argv[1:])) is not None:
            return args
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None):
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_DIGITS)
    try:
        return args.func(args)
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (ValueError, SearchBudgetExceeded) as exc:
        if str(exc).startswith("Exceeds the limit"):  # an integer's text past MAX_DIGITS
            print(f"error: the answer has a number of over {MAX_DIGITS} digits", file=sys.stderr)
            return 4
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
