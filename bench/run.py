#!/usr/bin/env python3
"""The wazz benchmark: one seeded, stdlib-only command.

    python3 bench/run.py --workload span-desk --seed 1 --seconds 20 --trace 0

It drives the README pipeline, `wazz equiv A B`, then `wazz zigzag A B -o W`,
then `wazz verify W`, in this process and one thread, as a closed loop with a
single client: each op is one in-process `wazz.cli.main([...])` call on `.wa`
files written at set-up, and the next op starts when the previous returns.
Every op is checked against an answer known without wazz (see workloads.py).

A run makes one set of pairs from the seed, sized from --seconds, and passes
over it once from empty wazz caches.  Each time is the wall time of the call
divided by how much slower than full speed the machine ran at that moment
(see speed.py); the raw times are printed too.

--trace 0 prints the end-to-end metrics.  --trace 1 passes over the first
half of the set untraced, then again with spans around the calls into each
wazz module (tracing.py), and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give every metric
with its unit and sample count, the environment, failures and wrong answers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Pairs per 20 s: a pass over this many took 12 to 17 s at full speed at the
# commit that added the benchmark, on a 2-core Xeon, which leaves room for
# the machine's slow spells.  The set scales with --seconds.  The tail
# percentile of an op is fixed by its count in the set, so a faster program
# does not move it.
PAIRS_PER_20S = {"span-desk": 960, "words-deep": 240, "restrict-unary": 300, "ghat-pca": 170}
WARMUP_PAIRS = 8
SETUP_REPEATS = 5
OP_LIMIT_S = 20
LADDER = (50, 75, 90, 95, 99, 99.9)
OPS = ("equiv", "zigzag", "verify")
WORK_DIR = os.path.join(ROOT, ".wazzbench")


class OpTimeout(BaseException):
    """Raised by SIGALRM in an op that overruns OP_LIMIT_S.  A BaseException,
    so that no handler inside wazz can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Ledger:
    """What one pass over the pairs measured and found."""

    def __init__(self):
        self.latency = {}        # (pair index, op) -> wall seconds
        self.complete = []       # pairs whose ops all completed
        self.attempted = 0
        self.failures = []       # (pair id, op, reason)
        self.wrong = []          # (pair id, op, reason)
        self.digest = hashlib.sha256()
        self.witness_bytes = 0
        self.witnesses = 0
        self.speed = speed.Speedometer()  # sample i is taken before pair i
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def fail(self, pair, op, reason):
        self.failures.append((pair.pid, op, reason))
        print(f"FAILED {pair.pid} {op}: {reason}", file=sys.stderr)

    def reject(self, pair, op, reason):
        self.wrong.append((pair.pid, op, reason))
        print(f"WRONG {pair.pid} {op}: {reason}", file=sys.stderr)

    def scaled(self):
        """Latencies divided by the machine's slowness around each pair."""
        return {(i, op): t / self.speed.slowness(i) for (i, op), t in self.latency.items()}


def _parse_word(stdout):
    first = stdout.splitlines()[0] if stdout else ""
    prefix = "NOT EQUIVALENT, separating word: "
    if not first.startswith(prefix):
        return None
    text = first[len(prefix):].strip()
    if text == "eps":
        return ()
    if text == "?" or not text:
        return None
    return tuple(text.split()) if " " in text else tuple(text)


class Pipeline:
    """Runs the three ops of a pair through `call(index, op, argv)` and
    checks them."""

    def __init__(self, call):
        self.call = call

    def _op(self, ledger, index, pair, op, argv):
        ledger.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            signal.alarm(OP_LIMIT_S)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.call(index, op, argv)
            finally:
                signal.alarm(0)
        except OpTimeout:
            ledger.fail(pair, op, f"over the {OP_LIMIT_S} s op limit")
            return None
        except Exception as exc:  # escaped cli.main: a failed op, not a wrong answer
            ledger.fail(pair, op, f"{type(exc).__name__}: {exc}")
            return None
        elapsed = perf_counter() - start
        if rc not in (0, 1):
            ledger.fail(pair, op, f"exit {rc}: {err.getvalue().strip()[:200]}")
            return None
        ledger.latency[index, op] = elapsed
        return rc, out.getvalue()

    def _verdict_ok(self, ledger, pair, op, rc, stdout):
        expect = 0 if pair.equivalent else 1
        if rc != expect:
            ledger.reject(pair, op, f"exit {rc}, expected {expect}")
            return False
        if rc == 0:
            if op == "equiv" and not stdout.startswith("EQUIVALENT"):
                ledger.reject(pair, op, "exit 0 without an EQUIVALENT verdict")
                return False
            return True
        word = _parse_word(stdout)
        if word is None:
            ledger.reject(pair, op, "no separating word printed")
            return False
        if (workloads.weight(pair.left, pair.x_left, word)
                == workloads.weight(pair.right, pair.x_right, word)):
            ledger.reject(pair, op, f"word {''.join(word) or 'eps'} does not separate")
            return False
        if len(word) != pair.word_len:
            ledger.reject(pair, op, f"separating word of length {len(word)}, "
                                    f"the shortest has length {pair.word_len}")
            return False
        return True

    def process(self, ledger, index, pair, files):
        left, right, witness = files
        res = self._op(ledger, index, pair, "equiv", ["equiv", left, right])
        if res is None:
            return
        self._verdict_ok(ledger, pair, "equiv", *res)
        res = self._op(ledger, index, pair, "zigzag", ["zigzag", left, right, "-o", witness])
        if res is None or not self._verdict_ok(ledger, pair, "zigzag", *res):
            return
        if pair.equivalent:
            with open(witness, "rb") as fh:
                data = fh.read()
            ledger.digest.update(data)
            ledger.witness_bytes += len(data)
            ledger.witnesses += 1
            res = self._op(ledger, index, pair, "verify", ["verify", witness])
            if res is None:
                return
            if res[0] != 0 or not res[1].startswith("VALID"):
                ledger.reject(pair, "verify", f"witness not VALID: {res[1].strip()[:200]}")
        ledger.complete.append(index)

    def run_pass(self, pairs, files):
        """One pass over all pairs, starting from empty wazz caches."""
        clear_wazz_caches()
        ledger = Ledger()
        start, cpu_start = perf_counter(), process_time()
        for index, (pair, f) in enumerate(zip(pairs, files)):
            ledger.speed.tick()
            self.process(ledger, index, pair, f)
        ledger.speed.tick()
        ledger.wall_s, ledger.cpu_s = perf_counter() - start, process_time() - cpu_start
        return ledger


def write_pairs(workdir, name, pairs):
    """Write the `.wa` files of a pair set; returns (left, right, witness) paths."""
    pdir = os.path.join(workdir, name)
    os.makedirs(pdir, exist_ok=True)
    files = []
    for i, pair in enumerate(pairs):
        base = os.path.join(pdir, f"p{i}")
        for side, aut, x in (("l", pair.left, pair.x_left), ("r", pair.right, pair.x_right)):
            with open(f"{base}{side}.wa", "w", encoding="utf-8") as fh:
                fh.write(workloads.to_text(aut, x))
        files.append((f"{base}l.wa", f"{base}r.wa", f"{base}.zz"))
    return files


def clear_wazz_caches():
    """Empty every functools cache in wazz, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "wazz" or name.startswith("wazz.")):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def tail_percentile(count):
    """Highest ladder percentile with at least ten of `count` samples beyond it."""
    return max((p for p in LADDER if count * (100 - p) / 100 >= 10), default=50)


def percentile(samples, p):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def environment():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "?"
    return (f"python {platform.python_version()}, nproc {os.cpu_count()} "
            f"(usable {usable}), cpu {model}")


def set_up(workload, seed, count, workdir, pipeline):
    """Make the pairs with their known answers and write them, then pass over
    a warm-up set of another seed; SETUP_REPEATS times.  Returns the pairs,
    their files, the raw and scaled time of each repeat, and the ledger of
    the last warm-up pass."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        meter = speed.Speedometer()
        meter.tick()
        start = perf_counter()
        pairs = workloads.make_pairs(workload, seed, count)
        files = write_pairs(workdir, "pairs", pairs)
        warm = workloads.make_pairs(workload, "warmup", WARMUP_PAIRS)
        warm_ledger = pipeline.run_pass(warm, write_pairs(workdir, "warmup", warm))
        raw.append(perf_counter() - start)
        meter.tick()
        scaled.append(raw[-1] / meter.overall())
    shutil.rmtree(os.path.join(workdir, "warmup"))
    return pairs, files, raw, scaled, warm_ledger


def report(name, value, unit, detail=""):
    print(f"{name} {value:.6g} {unit}" + (f"  ({detail})" if detail else ""))


def describe(label, ledger):
    print(f"{label} pass: wall {ledger.wall_s:.3f} s, process cpu {ledger.cpu_s:.3f} s, "
          f"machine {ledger.speed.overall():.2f}x slower than full speed "
          f"(kernel samples {min(ledger.speed.samples) / speed.KERNEL_REF_S:.2f}x"
          f"-{max(ledger.speed.samples) / speed.KERNEL_REF_S:.2f}x)")


def end_to_end(pairs, ledger, setup):
    import_s, raw_setup, scaled_setup = setup
    scaled = ledger.scaled()
    done = set(ledger.complete)
    metrics = {}

    def put(name, value, unit, detail=""):
        metrics[name] = (value, unit)
        report(name, value, unit, detail)

    put("setup_s", import_s + statistics.median(scaled_setup), "s",
        f"import {import_s:.3f} s + median of {SETUP_REPEATS} repeats, raw "
        + ", ".join(f"{t:.3f}" for t in raw_setup) + " s")
    op_s = sum(t for (i, _), t in scaled.items() if i in done)
    raw_s = sum(t for (i, _), t in ledger.latency.items() if i in done)
    put("pairs_per_s", len(done) / op_s, "1/s",
        f"{len(done)} pairs in {op_s:.3f} s of ops, raw {raw_s:.3f} s")
    for op in OPS:
        samples = [t for (_, o), t in scaled.items() if o == op]
        raws = [t for (_, o), t in ledger.latency.items() if o == op]
        planned = len(pairs) if op != "verify" else sum(p.equivalent for p in pairs)
        pct = tail_percentile(planned)
        put(f"{op}_p50_ms", statistics.median(samples) * 1000, "ms",
            f"n={len(samples)}, raw {statistics.median(raws) * 1000:.4g}")
        put(f"{op}_tail_ms", percentile(samples, pct) * 1000, "ms",
            f"p{pct:g}, n={len(samples)}, raw {percentile(raws, pct) * 1000:.4g}")
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    put("witness_kb", ledger.witness_bytes / 1024, "KB",
        f"{ledger.witnesses} witnesses, sha256 {ledger.digest.hexdigest()}")
    report("wrong_answers", len(ledger.wrong), "count", "must be 0")
    report("fail_share", len(ledger.failures) / ledger.attempted, "",
           f"{len(ledger.failures)} of {ledger.attempted} ops")
    describe("timed", ledger)
    return metrics


def traced_run(workload, seed, main, pairs, files):
    """An untraced pass, then a traced pass, over the same pairs."""
    plain = Pipeline(lambda index, op, argv: main(argv)).run_pass(pairs, files)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = Pipeline(lambda index, op, argv: tracer.call_root(
            len(OPS) * index + OPS.index(op), main, argv)).run_pass(pairs, files)
    finally:
        tracer.uninstall()
    if traced.digest.digest() != plain.digest.digest():
        traced.wrong.append(("*", "zigzag", "witness bytes differ under tracing"))
        print("WRONG witness bytes differ under tracing", file=sys.stderr)
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"trace-{workload}-s{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        tracer.write(fh, {"workload": workload, "seed": seed, "pairs": len(pairs)})

    totals = tracer.summary(lambda op: traced.speed.slowness(op // len(OPS)))
    plain_s, traced_s = sum(plain.scaled().values()), sum(traced.scaled().values())
    totals["trace.overhead_pct"] = (traced_s / plain_s - 1) * 100
    metrics = {}
    for name, value in totals.items():
        unit = ("ms" if name.endswith("_ms") else "%" if name.endswith("_pct")
                else "bytes" if name.endswith("_bytes") else "count")
        metrics[name] = (value, unit)
        report(name, value, unit)
    self_ms = {}
    for name, value in totals.items():
        if name.endswith("_ms"):
            layer = tracing.layer_of(name)
            self_ms[layer] = self_ms.get(layer, 0) + value
    whole = sum(self_ms.values())
    print("self time by layer: " + ", ".join(
        f"{layer} {ms / whole:.1%}"
        for layer, ms in sorted(self_ms.items(), key=lambda kv: -kv[1])))
    print(f"ops over {len(pairs)} pairs: untraced {plain_s:.3f} s, traced {traced_s:.3f} s; "
          f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    describe("untraced", plain)
    describe("traced", traced)
    return [plain, traced], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wazz", "cli.py")):
        print(f"error: no wazz sources under {src}", file=sys.stderr)
        return 2
    meter = speed.Speedometer()
    meter.tick()
    start = perf_counter()
    sys.path.insert(0, src)
    from wazz import cli
    import_s = perf_counter() - start
    meter.tick()
    import_s /= meter.overall()

    signal.signal(signal.SIGALRM, _on_alarm)
    count = max(1, round(PAIRS_PER_20S[args.workload] * args.seconds / 20))
    print(f"# wazz benchmark: workload {args.workload}, seed {args.seed}, "
          f"{count} pairs, trace {args.trace}")
    print(f"# environment: {environment()}")
    workdir = os.path.join(WORK_DIR, f"run-{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        pipeline = Pipeline(lambda index, op, argv: cli.main(argv))
        pairs, files, raw_setup, scaled_setup, warm_ledger = set_up(
            args.workload, args.seed, count, workdir, pipeline)
        if args.trace:
            half = max(1, len(pairs) // 2)
            ledgers, metrics = traced_run(args.workload, args.seed, cli.main,
                                          pairs[:half], files[:half])
        else:
            ledger = pipeline.run_pass(pairs, files)
            ledgers = [ledger]
            metrics = end_to_end(pairs, ledger, (import_s, raw_setup, scaled_setup))
        ledgers.append(warm_ledger)  # warm-up ops are gated like the others
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wrong = sum(len(led.wrong) for led in ledgers)
    result = {
        "correct": wrong == 0,
        "attempted": sum(led.attempted for led in ledgers),
        "failed": sum(len(led.failures) for led in ledgers),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
