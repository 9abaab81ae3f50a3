#!/usr/bin/env python3
"""Interleaved in-process A/B of two wazz source trees at scale.

    python3 tools/ab_scale.py OLD NEW
    python3 tools/ab_scale.py OLD NEW --case pca:30+4:a --case q:80+10:ab --rounds 3
    python3 tools/ab_scale.py OLD NEW --case int:40+5:ab:neg --op equiv

OLD and NEW are checkouts (each with `src/wazz`), loaded side by side in this
process as `tools/ab_inproc.py` loads them.  A case `tag:k+e:letters` is the
pair `tests/genrandom.py::lifted_pair(Random(seed), tag, k, e, letters)`: a
(k+e)-state lift and its k-state original, written once as `.wa` files by
this checkout's package.  The form `tag:k+e:letters:neg` is the same pair
with 1 added to the first entry of the small side's start, a negative case
for the tags whose starts are not bounded by 1 (not `unit` or `pca`).  Each
op (`zigzag A B -o W`, `equiv A B`, `verify W A B`) runs on both trees one
right after the other, the order alternating from round to round, each call
from empty `functools` caches.  `verify` reads each tree's own witness, which
that tree's `zigzag` writes, untimed, when no `zigzag` op ran before it.  The
report gives the process CPU seconds (`time.process_time`) of each call,
their median per tree over the rounds and the ratio NEW / OLD.  Each tree
writes its own witness; their sha256 must agree, and so must the exit codes
and the standard output of `equiv` and `verify`.  The command exits 1 on any
difference.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import random
import shutil
import statistics
import sys
import tempfile
from time import process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_CASES = ("pca:30+4:a", "pca:40+5:a", "pca:40+5:ab", "unit:40+5:ab",
                 "rplus:80+10:ab", "q:80+10:ab", "int:80+10:ab", "int:40+5:ab:neg")
OPS = ("zigzag", "equiv", "verify")


def load_inproc():
    """`tools/ab_inproc.py` as a module: its tree loader and cache reset."""
    spec = importlib.util.spec_from_file_location("ab_inproc",
                                                  os.path.join(ROOT, "tools", "ab_inproc.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_case(text):
    """(tag, k, e, letters, neg) of `tag:k+e:letters` or `tag:k+e:letters:neg`."""
    try:
        tag, size, letters, *rest = text.split(":")
        k, e = map(int, size.split("+"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected tag:k+e:letters or tag:k+e:letters:neg, got {text!r}") from None
    if k < 1 or e < 0 or not letters or rest not in ([], ["neg"]):
        raise argparse.ArgumentTypeError(f"bad case {text!r}")
    if rest and tag in ("unit", "pca"):
        raise argparse.ArgumentTypeError(f"no negative form for tag {tag}: {text!r}")
    return tag, k, e, letters, bool(rest)


def write_case(case, seed, workdir):
    """The two `.wa` files of one case, made by this checkout's package and
    test generator."""
    from genrandom import lifted_pair
    from wazz.automata import SemiringTag, automaton_to_text

    tag, k, e, letters, neg = case
    big, x_big, small, x_small = lifted_pair(random.Random(seed), SemiringTag(tag), k, e,
                                             tuple(letters))
    if neg:  # d > 0 and gcd(d, *ints) == 1 stay as they were
        den, ints = x_small
        x_small = den, (ints[0] + den,) + ints[1:]
    paths = []
    for side, aut, x in (("l", big, x_big), ("r", small, x_small)):
        path = os.path.join(workdir, f"{tag}-{k}+{e}-{letters}{'-neg' * neg}-{side}.wa")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(automaton_to_text(aut, x))
        paths.append(path)
    return paths


def timed_call(main, argv):
    """(exit code, stdout, process CPU seconds) of one `main(argv)` call."""
    out = io.StringIO()
    start = process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue(), process_time() - start


def run_op(inproc, mains, op, left, right, witnesses, order):
    """{tree: (exit code, output digest, CPU seconds)} of one op on both trees."""
    results = {}
    for tree in order:
        inproc.clear_caches(("wazz_a", "wazz_b")[tree])
        argv = {"zigzag": ["zigzag", left, right, "-o", witnesses[tree]],
                "equiv": ["equiv", left, right],
                "verify": ["verify", witnesses[tree], left, right]}[op]
        rc, out, seconds = timed_call(mains[tree], argv)
        if op == "zigzag" and rc == 0:
            with open(witnesses[tree], "rb") as fh:
                out = fh.read()
        else:
            out = out.encode("utf-8")
        results[tree] = (rc, hashlib.sha256(out).hexdigest(), seconds)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="checkout of the baseline tree")
    parser.add_argument("new", help="checkout of the changed tree")
    parser.add_argument("--case", action="append", type=parse_case,
                        help="tag:k+e:letters or tag:k+e:letters:neg (repeatable; default: "
                             + " ".join(DEFAULT_CASES) + ")")
    parser.add_argument("--op", action="append", choices=OPS,
                        help="op to time (repeatable; default: all three)")
    parser.add_argument("--seed", type=int, default=0, help="seed of `random.Random` per case")
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    cases = args.case or [parse_case(c) for c in DEFAULT_CASES]
    ops = [op for op in OPS if op in (args.op or OPS)]  # zigzag writes before verify reads

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    inproc = load_inproc()
    mains = (inproc.load_cli(args.old, "wazz_a"), inproc.load_cli(args.new, "wazz_b"))
    print(f"seed {args.seed}, {args.rounds} round(s); {args.old} (old) vs {args.new} (new); "
          "process CPU seconds per call")
    differ = 0
    workdir = tempfile.mkdtemp(prefix="wazz-scale-")
    try:
        for index, case in enumerate(cases):
            left, right = write_case(case, args.seed, workdir)
            witnesses = [os.path.join(workdir, f"case{index}-{tree}.zz") for tree in "ab"]
            if "verify" in ops and "zigzag" not in ops:
                run_op(inproc, mains, "zigzag", left, right, witnesses, (0, 1))
            label = f"{case[0]} {case[1]}+{case[2]} {case[3]}{' neg' * case[4]}"
            for op in ops:
                times, digests = ([], []), set()
                for rnd in range(args.rounds):
                    results = run_op(inproc, mains, op, left, right, witnesses,
                                     (0, 1) if rnd % 2 == 0 else (1, 0))
                    for tree in (0, 1):
                        times[tree].append(results[tree][2])
                    digests.add(tuple(results[tree][:2] for tree in (0, 1)))
                same = all(a == b for a, b in digests)
                differ += not same
                old, new = (statistics.median(t) for t in times)
                rc, digest = next(iter(digests))[1]
                print(f"{label:18s} {op:6s} old {old:8.3f} s  new {new:8.3f} s  "
                      f"ratio {new / old:.3f} ({(new / old - 1) * 100:+.1f}%)  "
                      f"exit {rc}  sha256 {digest[:16]}  "
                      f"{'same' if same else 'DIFFERENT'}")
                if args.rounds > 1:
                    print(f"{'':25s} old {' '.join(f'{t:.3f}' for t in times[0])}  "
                          f"new {' '.join(f'{t:.3f}' for t in times[1])}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"cases with different output: {differ}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
