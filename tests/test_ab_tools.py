"""Smoke tests of the A/B tools, `tools/ab_inproc.py` and `tools/ab_scale.py`.

Each tool runs on two copies of `src/wazz` and must exit 0 with no
mismatch; against a copy whose `equiv` prints a changed EQUIVALENT line it
must exit 1 and name the op that differs.  `ab_inproc` counts its mismatches
by kind: against a copy that changes one output, every one is of that kind,
the stdout of `equiv`, of `zigzag` or of `verify`, or, for witnesses that
carry one more comment line, witness bytes, and none is of verdict.  Each
run is a child process, as the tools load both trees into `sys.modules` and
put this checkout on `sys.path`."""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = {
    "ab_inproc": ["--workload", "span-desk", "--pairs", "2", "--rounds", "1"],
    "ab_scale": ["--case", "q:3+1:ab", "--rounds", "1"],
}


def tree(tmp_path, name, changed=False, edit=None):
    """A checkout at tmp_path/name holding a copy of `src/wazz`; with
    `changed`, its `cli` prints `EQUIVALENT (changed)` for an equivalent pair,
    and `edit`, (module, old, new), replaces one text of a module."""
    package = tmp_path / name / "src" / "wazz"
    shutil.copytree(os.path.join(ROOT, "src", "wazz"), package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if changed:
        edit = ("cli", '["EQUIVALENT",', '["EQUIVALENT (changed)",')
    if edit:
        module, old, new = edit
        source = package / f"{module}.py"
        text = source.read_text(encoding="utf-8")
        assert text.count(old) == 1
        source.write_text(text.replace(old, new), encoding="utf-8")
    return str(tmp_path / name)


def run(tool, old, new, *extra):
    """The tool's run on the two trees, with extra arguments after `RUNS`'s
    (a later option overrides an earlier one)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, os.path.join(ROOT, "tools", f"{tool}.py"), old, new,
                           *RUNS[tool], *extra], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)


@pytest.fixture
def trees(tmp_path):
    return tree(tmp_path, "old"), tree(tmp_path, "new"), tree(tmp_path, "changed", True)


def test_ab_inproc(trees):
    old, new, changed = trees
    same = run("ab_inproc", old, new)
    assert same.returncode == 0, same.stdout + same.stderr
    assert "mismatches: 0" in same.stdout.splitlines()
    assert ("mismatches by kind: equiv output 0, zigzag output 0, verify output 0, "
            "witness bytes 0, verdict 0") in same.stdout.splitlines()
    differ = run("ab_inproc", old, changed)
    assert differ.returncode == 1, differ.stdout + differ.stderr
    lines = differ.stdout.splitlines()
    assert "mismatches: 0" not in lines
    assert any(" equiv: " in line and "EQUIVALENT (changed)" in line for line in lines), lines


def test_ab_scale(trees):
    old, new, changed = trees
    same = run("ab_scale", old, new)
    assert same.returncode == 0, same.stdout + same.stderr
    lines = same.stdout.splitlines()
    assert "cases with different output: 0" in lines
    assert [line.split()[3] for line in lines if line.startswith("q 3+1 ab")] == \
        ["zigzag", "equiv", "verify"]
    assert not any("DIFFERENT" in line for line in lines)
    differ = run("ab_scale", old, changed)
    assert differ.returncode == 1, differ.stdout + differ.stderr
    lines = differ.stdout.splitlines()
    assert "cases with different output: 1" in lines
    assert [line.split()[3] for line in lines if line.endswith("DIFFERENT")] == ["equiv"], lines


KINDS = ("equiv output", "zigzag output", "verify output", "witness bytes", "verdict")
EDITS = {  # (module, old, new) of a copy whose mismatches are all of the kind
    "equiv output": ("cli", '["EQUIVALENT",', '["EQUIVALENT (changed)",'),
    "zigzag output": ("cli", "nodes written to", "nodes now written to"),
    "verify output": ("cli", 'print(f"VALID (', 'print(f"VALID, ('),
    "witness bytes": ("zigzag", 'lines = [f"zigzag {z.functor} {z.tag.value}",',
                      'lines = ["# commented", f"zigzag {z.functor} {z.tag.value}",'),
}


def test_ab_inproc_counts_mismatches_by_kind(tmp_path):
    """Each edit's mismatches are all of its kind, and each pair, op and
    kind counts once: two rounds give the count of one."""
    old = tree(tmp_path, "old")
    for i, (kind, edit) in enumerate(EDITS.items()):
        edited = tree(tmp_path, f"edited{i}", edit=edit)
        counts = []
        for rounds in ("1", "2"):
            differ = run("ab_inproc", old, edited, "--rounds", rounds)
            assert differ.returncode == 1, differ.stdout + differ.stderr
            lines = differ.stdout.splitlines()
            (count,) = [int(line.split()[1]) for line in lines
                        if line.startswith("mismatches: ")]
            assert count > 0
            by_kind = ", ".join(f"{k} {count if k == kind else 0}" for k in KINDS)
            assert f"mismatches by kind: {by_kind}" in lines, (kind, lines)
            counts.append(count)
        assert counts[0] == counts[1], (kind, counts)
