"""Command-line front end.

Exit codes: 0 for success or a positive verdict, 1 for a negative result
(not equivalent, invalid witness, empty polyhedron), 2 for usage or parse
errors, 3 for an internal error (a bug, reported as `internal error: ...`
on stderr).  Output uses exact rational literals throughout.
"""

from __future__ import annotations

import argparse
import sys

from .automata import NotEquivalent, SemiringTag, equivalent, parse_automaton, trace
from .formats import ParseError, fmt_rat, fmt_vec, parse_rat, word_text
from .hilbert import IntConeSpec, hilbert_basis
from .linalg import Mat, unit
from .polyhedra import (INFINITY, InternalError, dd_h_to_v, dd_v_to_h, gauge,
                        hrep_to_text, parse_hrep, parse_pca_polytope, parse_vrep,
                        vrep_to_text)
from .zigzag import cubic_zigzag, ghat_zigzag, parse_zigzag, verify_zigzag, zigzag_to_text


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(path, 0, f"cannot read file: {exc.strerror}") from None


def _load_automaton(path):
    aut, state = parse_automaton(_read(path), path)
    return aut, state


def _pick_state(aut, state, index, path):
    if index is not None:
        if not 1 <= index <= aut.n:
            raise ParseError(path, 0, f"state index {index} out of range 1..{aut.n}")
        return unit(aut.n, index - 1)
    if state is not None:
        return state
    return unit(aut.n, 0)


def _cmd_trace(args):
    aut, state = _load_automaton(args.automaton)
    x = _pick_state(aut, state, args.state_index, args.automaton)
    depth = args.depth if args.depth is not None else aut.n
    tr = trace(aut, x, depth)
    for word, value in tr.items():
        print(f"{word_text(word, aut.alphabet)} {fmt_rat(value)}")
    return 0


def _cmd_equiv(args):
    aut1, state1 = _load_automaton(args.left)
    aut2, state2 = _load_automaton(args.right)
    if aut1.tag is not aut2.tag:
        raise ParseError(args.right, 0,
                         f"semiring mismatch: {aut1.tag.value} vs {aut2.tag.value}")
    if aut1.alphabet != aut2.alphabet:
        raise ParseError(args.right, 0, "alphabet mismatch")
    x1 = _pick_state(aut1, state1, args.left_state, args.left)
    x2 = _pick_state(aut2, state2, args.right_state, args.right)
    result = equivalent(aut1, x1, aut2, x2)
    if result.equivalent:
        print("EQUIVALENT")
        print(f"pair closure generated by {len(result.basis)} elements:")
        for g in result.basis:
            print("  " + fmt_vec(g))
        return 0
    print(f"NOT EQUIVALENT, separating word: {word_text(result.word, aut1.alphabet)}")
    return 1


def _cmd_zigzag(args):
    aut1, state1 = _load_automaton(args.left)
    aut2, state2 = _load_automaton(args.right)
    if aut1.tag is not aut2.tag:
        raise ParseError(args.right, 0,
                         f"semiring mismatch: {aut1.tag.value} vs {aut2.tag.value}")
    if aut1.alphabet != aut2.alphabet:
        raise ParseError(args.right, 0, "alphabet mismatch")
    x1 = _pick_state(aut1, state1, args.left_state, args.left)
    x2 = _pick_state(aut2, state2, args.right_state, args.right)
    builder = ghat_zigzag if aut1.tag is SemiringTag.PCA else cubic_zigzag
    try:
        witness = builder(aut1, x1, aut2, x2)
    except NotEquivalent as exc:
        print(f"NOT EQUIVALENT, separating word: {word_text(exc.word, aut1.alphabet)}")
        return 1
    text = zigzag_to_text(witness)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"witness with {len(witness.nodes)} nodes written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args):
    witness = parse_zigzag(_read(args.witness), args.witness)
    report = verify_zigzag(witness)
    if report.valid:
        print(f"VALID ({len(report.checks)} checks passed)")
        return 0
    print(f"INVALID ({len(report.failures())} of {len(report.checks)} checks failed)")
    for c in report.failures():
        detail = f": {c.detail}" if c.detail else ""
        print(f"  {c.name}{detail}")
    return 1


def _cmd_hilbert(args):
    from .formats import LineReader
    r = LineReader(_read(args.cone), args.cone)
    toks = r.next_tokens(expect="dimension line: <k> <m>")
    if len(toks) != 2:
        r.error("expected dimension line: <k> <m>")
    k = r.parse_int(toks[0], minimum=1)
    m = r.parse_int(toks[1], minimum=1)
    rows = []
    for _ in range(k):
        row = r.parse_rats(r.next_tokens(expect=f"{m} integers"), m)
        for q in row:
            if q.denominator != 1:
                r.error(f"entry {fmt_rat(q)} must be an integer")
        rows.append(row)
    if r:
        r.error("trailing input after the constraint matrix")
    for g in hilbert_basis(IntConeSpec(k=k, w=Mat(rows))):
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
        x = tuple(parse_rat(t) for t in args.point)
    except ValueError as exc:
        raise ParseError("<point>", 0, str(exc)) from None
    if len(x) != polytope.dim:
        raise ParseError("<point>", 0,
                         f"expected {polytope.dim} coordinates, got {len(x)}")
    value = gauge(polytope, x)
    print("inf" if value is INFINITY else fmt_rat(value))
    return 0


def build_parser():
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

    for name, func in (("equiv", _cmd_equiv), ("zigzag", _cmd_zigzag)):
        p = sub.add_parser(name, help="decide trace equivalence" if name == "equiv"
                           else "construct a zig-zag witness")
        p.add_argument("left")
        p.add_argument("right")
        p.add_argument("--left-state", type=int, default=None,
                       help="1-based basis state for the left automaton")
        p.add_argument("--right-state", type=int, default=None,
                       help="1-based basis state for the right automaton")
        if name == "zigzag":
            p.add_argument("-o", "--output", default=None,
                           help="write the witness to this file")
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="independently re-check a witness file")
    p.add_argument("witness")
    p.set_defaults(func=_cmd_verify)

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

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
