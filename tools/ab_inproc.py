#!/usr/bin/env python3
"""Interleaved in-process A/B timing of two wazz source trees.

    python3 tools/ab_inproc.py OLD NEW --workload ghat-pca --seed 1 --pairs 60
    python3 tools/ab_inproc.py OLD NEW --workload all

OLD and NEW are checkouts (each with `src/wazz`).  Both packages are loaded
side by side in this process, under the names `wazz_a` and `wazz_b`, and
every op of the benchmark pipeline (`equiv A B`, `zigzag A B -o W`,
`verify W`) runs on both, one right after the other, per pair and per
round, the order alternating from pair to pair.  The two calls of one op
thus meet the same machine state, which separate benchmark processes on a
shared machine do not.  Every round starts from empty `functools` caches in
both trees, as each pass of `bench/run.py` does.  Each tree writes its own
witness file and verifies the witness it wrote, so a change of witness
shape is timed too.

The pairs are those of `bench/workloads.py` (read from this checkout, not
changed).  Every op must give the same exit code and standard output on both
trees (the witness path aside), `zigzag` the same witness bytes and
`verify` of a byte-identical witness the same report; a mismatch is printed
and the command exits 1.  A mismatch is one pair, op and kind, counted once
and printed with its first line however many rounds show it.  The
mismatches are also counted by kind: the exit code or stdout of `equiv`
and of `zigzag`, the report of `verify` on byte-identical witnesses,
witness bytes, and verdict (the exit codes of `verify` of the two
witnesses), so an A/B of a declared change of `equiv` output or of witness
bytes shows at a glance whether anything else moved.
The report gives, per op, the median wall time of each tree, the median
over pairs of the per-pair ratio NEW / OLD (each pair's
time is its median over the rounds), the ratio of the two trees' times at
the tail percentile `bench/run.py` reports for that many samples, and the
share of pairs on which NEW was faster than OLD (ties count for neither).
`--workload all` runs every workload of `bench/workloads.py` in turn, one
report block each, and exits 1 if any of them has a mismatch.  Standard
library only.

The tool's noise floor is an A/A run, one tree passed as both OLD and NEW:

    python3 tools/ab_inproc.py . . --workload all --pairs 160 --rounds 5

On a shared 2-core Xeon (Python 3.11.7), two such runs read every median
per-pair ratio within +-1.2% and every tail ratio within +-3.7%, the
order in which the trees are loaded included; a change inside those
bounds is not told apart from noise.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPS = ("equiv", "zigzag", "verify")
# what a mismatch differs in
KINDS = ("equiv output", "zigzag output", "verify output", "witness bytes", "verdict")


def load_module(name, path, package_dir=None):
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package_dir is None else [package_dir])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(tree, name):
    """`cli.main` of the wazz package under tree/src, loaded as `name`."""
    package_dir = os.path.join(os.path.abspath(tree), "src", "wazz")
    if not os.path.isfile(os.path.join(package_dir, "cli.py")):
        raise SystemExit(f"no wazz package at {package_dir}")
    load_module(name, os.path.join(package_dir, "__init__.py"), package_dir)
    return importlib.import_module(f"{name}.cli").main


def clear_caches(package):
    """Empty every functools cache of the loaded package, as in a fresh
    process."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == package or name.startswith(package + ".")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def call(main, argv):
    """(exit code, stdout, seconds) of one `main(argv)` call."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue(), perf_counter() - start


def write_pairs(workloads, pairs, workdir):
    files = []
    for i, pair in enumerate(pairs):
        paths = []
        for side, aut, x in (("l", pair.left, pair.x_left), ("r", pair.right, pair.x_right)):
            path = os.path.join(workdir, f"p{i}{side}.wa")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(workloads.to_text(aut, x))
            paths.append(path)
        files.append((paths[0], paths[1],
                      tuple(os.path.join(workdir, f"p{i}{tree}.zz") for tree in "ab")))
    return files


def run_pair(mains, files, order, times, mismatches, label):
    """The three ops of one pair on both trees, in `order`, each tree
    verifying the witness it wrote; records each op's time per tree and
    every disagreement in `mismatches`, keyed by (pair, op, kind), so a pair
    that differs in every round counts once, with its first line."""
    left, right, witnesses = files
    results = {}

    def mismatch(op, kind, line):
        mismatches.setdefault((label, op, kind), line)

    for op in ("equiv", "zigzag"):
        for side in order:
            argv = ["equiv", left, right]
            if op == "zigzag":
                argv = ["zigzag", left, right, "-o", witnesses[side]]
            rc, out, seconds = call(mains[side], argv)
            data = None
            if op == "zigzag" and rc == 0:
                with open(witnesses[side], "rb") as fh:
                    data = fh.read()
            results[op, side] = (rc, out.replace(witnesses[side], "W"), data)
            times[op][side].append(seconds)
        if results[op, 0][:2] != results[op, 1][:2]:
            mismatch(op, f"{op} output", f"{label} {op}: {results[op, 0][:2]!r} vs "
                                         f"{results[op, 1][:2]!r}")
        elif results[op, 0] != results[op, 1]:
            sizes = [len(results[op, side][2]) for side in (0, 1)]
            mismatch(op, "witness bytes", f"{label} {op}: witness bytes differ "
                                          f"({sizes[0]} vs {sizes[1]})")
    if results["zigzag", 0][0] == 0 and results["zigzag", 1][0] == 0:
        outs = []
        for side in order:
            rc, out, seconds = call(mains[side], ["verify", witnesses[side]])
            outs.append((rc, out))
            times["verify"][side].append(seconds)
        # a report counts its checks, so only the verdicts of unlike witnesses compare
        same = results["zigzag", 0][2] == results["zigzag", 1][2]
        if outs[0][0] != outs[1][0]:
            mismatch("verify", "verdict", f"{label} verify: {outs[0]!r} vs {outs[1]!r}")
        elif same and outs[0] != outs[1]:
            mismatch("verify", "verify output", f"{label} verify: {outs[0]!r} vs {outs[1]!r}")


def run_workload(bench, mains, args, workload):
    """Times the pairs of one workload on both trees and prints its block;
    returns the number of mismatches."""
    workloads = bench.workloads
    pairs = workloads.make_pairs(workload, args.seed, args.pairs)
    workdir = tempfile.mkdtemp(prefix="wazz-ab-")
    try:
        files = write_pairs(workloads, pairs, workdir)
        # per op and pair: the times of each tree over the rounds
        per_pair = {op: [[[], []] for _ in pairs] for op in OPS}
        mismatches = {}  # (pair, op, kind) -> the first line that shows it
        for rnd in range(args.rounds):
            clear_caches("wazz_a")
            clear_caches("wazz_b")
            for i, f in enumerate(files):
                run_pair(mains, f, (0, 1) if (i + rnd) % 2 == 0 else (1, 0),
                         {op: per_pair[op][i] for op in OPS}, mismatches, pairs[i].pid)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload}, seed {args.seed}, {len(pairs)} pairs, "
          f"{args.rounds} rounds; {args.old} (old) vs {args.new} (new)")
    for op in OPS:
        timed = [(statistics.median(a), statistics.median(b))
                 for a, b in per_pair[op] if a and b]
        if not timed:
            print(f"{op:7s} no samples")
            continue
        old_ms = statistics.median(a for a, _ in timed) * 1000
        new_ms = statistics.median(b for _, b in timed) * 1000
        ratio = statistics.median(b / a for a, b in timed)
        pct = bench.tail_percentile(len(timed))
        tail = (bench.percentile([b for _, b in timed], pct)
                / bench.percentile([a for a, _ in timed], pct))
        wins = sum(b < a for a, b in timed)
        print(f"{op:7s} n={len(timed):4d}  old {old_ms:8.3f} ms  new {new_ms:8.3f} ms  "
              f"median per-pair ratio {ratio:.3f} ({(ratio - 1) * 100:+.1f}%)  "
              f"p{pct:g} ratio {tail:.3f} ({(tail - 1) * 100:+.1f}%)  "
              f"new faster on {wins}/{len(timed)} pairs ({wins / len(timed):.0%})")
    print(f"mismatches: {len(mismatches)}")
    kinds = [kind for _, _, kind in mismatches]
    print("mismatches by kind: " + ", ".join(f"{kind} {kinds.count(kind)}" for kind in KINDS))
    for line in list(mismatches.values())[:20]:
        print("  " + line)
    return len(mismatches)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="checkout of the baseline tree")
    parser.add_argument("new", help="checkout of the changed tree")
    parser.add_argument("--workload", required=True,
                        help="a workload of bench/workloads.py, or 'all' for each in turn")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--pairs", type=int, default=60)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    bench = load_module("bench_run", os.path.join(ROOT, "bench", "run.py"))
    names = list(bench.workloads.WORKLOADS)
    if args.workload not in names + ["all"]:
        parser.error(f"unknown workload {args.workload!r}")
    mains = (load_cli(args.old, "wazz_a"), load_cli(args.new, "wazz_b"))
    mismatches = 0
    for i, workload in enumerate(names if args.workload == "all" else [args.workload]):
        if i:
            print()
        mismatches += run_workload(bench, mains, args, workload)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
