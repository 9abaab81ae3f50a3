"""The benchmark harness end to end: `bench/run.py` on each workload, in a
child process, for a quarter of a second.  It is the one consumer that
reads wazz's standard output and witness files as a benchmark run does, so
a change that breaks what it parses fails here, not first in a timed run.
Each run writes only under the ignored `.wazzbench/` directory."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("span-desk", "words-deep", "restrict-unary", "ghat-pca")


def snapshot():
    """sha256 of every file under bench/ and of BENCHMARK.json, by path."""
    paths = [os.path.join(ROOT, "BENCHMARK.json")]
    for folder, _, names in os.walk(os.path.join(ROOT, "bench")):
        paths += [os.path.join(folder, name) for name in names]
    digests = {}
    for path in sorted(paths):
        with open(path, "rb") as fh:
            digests[os.path.relpath(path, ROOT)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_run_is_correct(workload):
    before = snapshot()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "2",
         "--seconds", "0.25"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] > 0
    assert snapshot() == before
