import random

import pytest

from wazz import pca, zigzag
from wazz.cli import build_parser, main
from wazz.automata import SemiringTag, automaton_to_text
from wazz.zigzag import parse_zigzag, zigzag_to_text

from genrandom import lifted_pair
from test_zigzag import two_generator_nat_witness

HALF_LOOP = """\
semiring qplus
alphabet a
states 1
output 1/2
trans a
1/2
state 1
"""

SWAP = """\
semiring qplus
alphabet a
states 2
output 1/2 1/2
trans a
0 1/2
1/2 0
state 1 0
"""

SWAP_BAD = SWAP.replace("output 1/2 1/2", "output 1/2 1")

PCA_LOOP = HALF_LOOP.replace("semiring qplus", "semiring pca")

# state 1 behaves like HALF_LOOP, state 2 does not
HALF_OR_ONE = """\
semiring qplus
alphabet a
states 2
output 1/2 1
trans a
1/2 0
0 1/2
state 1 0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestTrace:
    def test_trace_table(self, tmp_path, capsys):
        path = write(tmp_path, "a.wa", HALF_LOOP)
        assert main(["trace", path, "--depth", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["eps 1/2", "a 1/4", "aa 1/8"]

    def test_state_index(self, tmp_path, capsys):
        path = write(tmp_path, "b.wa", SWAP)
        assert main(["trace", path, "--state-index", "2", "--depth", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == ["eps 1/2", "a 1/4"]


class TestEquiv:
    def test_equivalent(self, tmp_path, capsys):
        a = write(tmp_path, "a.wa", HALF_LOOP)
        b = write(tmp_path, "b.wa", SWAP)
        assert main(["equiv", a, b]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_not_equivalent(self, tmp_path, capsys):
        a = write(tmp_path, "a.wa", HALF_LOOP)
        b = write(tmp_path, "b.wa", SWAP_BAD)
        assert main(["equiv", a, b]) == 1
        assert "NOT EQUIVALENT, separating word: a" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["equiv", "zigzag"])
    def test_tag_mismatch_is_usage_error(self, tmp_path, capsys, command):
        a = write(tmp_path, "a.wa", HALF_LOOP)
        b = write(tmp_path, "b.wa", PCA_LOOP)
        assert main([command, a, b]) == 2
        assert "semiring mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["equiv", "zigzag"])
    def test_alphabet_mismatch_is_usage_error(self, tmp_path, capsys, command):
        a = write(tmp_path, "a.wa", HALF_LOOP)
        b = write(tmp_path, "b.wa", HALF_LOOP.replace(" a\n", " b\n"))
        assert main([command, a, b]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"{b}:0: alphabet mismatch\n")

    @pytest.mark.parametrize("command", ["equiv", "zigzag"])
    def test_left_state_out_of_range_is_usage_error(self, tmp_path, capsys, command):
        a = write(tmp_path, "a.wa", HALF_LOOP)
        b = write(tmp_path, "b.wa", SWAP)
        assert main([command, a, b, "--left-state", "2"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"{a}:0: state index 2 out of range 1..1\n")

    def test_state_outside_tag_is_parse_error(self, tmp_path, capsys):
        text = "semiring nat\nalphabet a\nstates 1\noutput 1\ntrans a\n1\nstate 1/2\n"
        bad = write(tmp_path, "half.wa", text)
        assert main(["equiv", bad, bad]) == 2
        assert "half.wa:7: state entry 1/2 violates tag nat" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["equiv", "zigzag"])
    def test_state_above_the_subsimplex_is_parse_error(self, tmp_path, capsys, command):
        # the traces agree, but the state 1 1 lies outside the unit tag's
        # endpoint carrier, the subsimplex, so no witness could verify
        left = ("semiring unit\nalphabet a\nstates 2\noutput 1/2 1/2\n"
                "trans a\n1/2 0\n0 1/2\nstate 1 1\n")
        right = "semiring unit\nalphabet a\nstates 1\noutput 1\ntrans a\n1/2\nstate 1\n"
        a = write(tmp_path, "a.wa", left)
        b = write(tmp_path, "b.wa", right)
        assert main([command, a, b]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"{a}:8: state entries sum to 2, above 1 for tag unit\n")

    def test_pca_state_above_the_subsimplex_is_parse_error(self, tmp_path, capsys):
        text = "semiring pca\nalphabet a\nstates 2\noutput 1/2 0\ntrans a\n0 0\n0 0\n"
        a = write(tmp_path, "a.wa", text + "state 1/2 2/3\n")
        assert main(["equiv", a, a]) == 2
        assert capsys.readouterr().err == (
            f"{a}:8: state entries sum to 7/6, above 1 for tag pca\n")
        b = write(tmp_path, "b.wa", text + "state 1/2 1/2\n")
        assert main(["equiv", b, b]) == 0

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.wa", "semiring nope\n")
        assert main(["equiv", bad, bad]) == 2
        err = capsys.readouterr().err
        assert "bad.wa:1" in err


class TestZigzagVerify:
    def test_zigzag_then_verify(self, tmp_path, capsys):
        a = write(tmp_path, "a.wa", HALF_LOOP)
        b = write(tmp_path, "b.wa", SWAP)
        out = str(tmp_path / "w.zz")
        assert main(["zigzag", a, b, "-o", out]) == 0
        assert main(["verify", out]) == 0
        assert "VALID" in capsys.readouterr().out

    def test_zigzag_pca_pipeline(self, tmp_path, capsys):
        a = write(tmp_path, "a.wa", PCA_LOOP)
        out = str(tmp_path / "w.zz")
        assert main(["zigzag", a, a, "-o", out]) == 0
        witness = parse_zigzag((tmp_path / "w.zz").read_text(), "w.zz")
        assert len(witness.nodes) == 5
        assert main(["verify", out]) == 0

    def test_zigzag_not_equivalent(self, tmp_path, capsys):
        a = write(tmp_path, "a.wa", HALF_LOOP)
        b = write(tmp_path, "b.wa", SWAP_BAD)
        assert main(["zigzag", a, b]) == 1

    def test_verify_catches_tampering(self, tmp_path, capsys):
        a = write(tmp_path, "a.wa", HALF_LOOP)
        b = write(tmp_path, "b.wa", SWAP)
        out = str(tmp_path / "w.zz")
        main(["zigzag", a, b, "-o", out])
        text = (tmp_path / "w.zz").read_text()
        tampered = text.replace("at 1 1 1 0", "at 1 1 0 1")
        (tmp_path / "w.zz").write_text(tampered)
        assert main(["verify", out]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_verify_names_the_separating_word(self, tmp_path, capsys):
        a = write(tmp_path, "a.wa", HALF_LOOP)
        b = write(tmp_path, "b.wa", SWAP)
        out = str(tmp_path / "w.zz")
        assert main(["zigzag", a, b, "-o", out]) == 0
        text = (tmp_path / "w.zz").read_text()
        # the right endpoint is the last node, so its output line comes last
        head, sep, tail = text.rpartition("out 1/2 1/2\n")
        assert sep
        (tmp_path / "w.zz").write_text(head + "out 1/2 1\n" + tail)
        capsys.readouterr()
        assert main(["verify", out]) == 1
        stdout = capsys.readouterr().out
        assert "INVALID" in stdout
        assert 'trace-agreement: endpoint traces differ on word "a"' in stdout

    def test_tag_breaking_node_map_is_a_failed_check(self, tmp_path, capsys):
        # witness nodes carry no tag rules: a nat witness whose first node
        # map has a negative entry parses, and the verifier rejects it
        a = write(tmp_path, "a.wa", "semiring nat\nalphabet a\nstates 2\noutput 1 1\n"
                                    "trans a\n0 1\n1 0\nstate 1 0\n")
        out = tmp_path / "w.zz"
        assert main(["zigzag", a, a, "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("zigzag cubic nat\n")
        out.write_text(text.replace("trans a\n0 1\n", "trans a\n0 -1\n", 1))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout.startswith("INVALID")
        assert "  node-coalgebra[0]: transition image of 1 0 leaves the carrier" in stdout
        assert err == ""

    def test_monoid_budget_overrun_is_a_failed_check(self, tmp_path, capsys):
        path = write(tmp_path, "deep.zz",
                     zigzag_to_text(two_generator_nat_witness(
                         zigzag.MONOID_STEP_BUDGET // 2,
                         zigzag.MONOID_STEP_BUDGET - zigzag.MONOID_STEP_BUDGET // 2 + 1)))
        assert main(["verify", path]) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0].startswith("INVALID (1 of ")
        assert lines[1:] == ["  relating[1]: N-monoid membership search exceeded its "
                             f"budget of {zigzag.MONOID_STEP_BUDGET} steps"]
        assert err == ""

    def test_internal_error_exit_code(self, tmp_path, capsys, monkeypatch):
        # a fixed-point system without solution on a valid coalgebra is a bug
        monkeypatch.setattr(pca, "solve", lambda m, b: None)
        a = write(tmp_path, "a.wa", PCA_LOOP)
        assert main(["zigzag", a, a, "-o", str(tmp_path / "w.zz")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: fixed-point system infeasible")
        assert "Traceback" not in err

    def test_roundtrip_through_cli_files(self, tmp_path):
        rng = random.Random("cli-roundtrip")
        for tag in (SemiringTag.NAT, SemiringTag.UNIT, SemiringTag.PCA):
            aut1, x1, aut2, x2 = lifted_pair(rng, tag, 2, 1, ("a", "b"))
            a = write(tmp_path, f"{tag.value}-1.wa", automaton_to_text(aut1, x1))
            b = write(tmp_path, f"{tag.value}-2.wa", automaton_to_text(aut2, x2))
            out = str(tmp_path / f"{tag.value}.zz")
            assert main(["zigzag", a, b, "-o", out]) == 0
            assert main(["verify", out]) == 0


class TestHilbert:
    def test_staircase(self, tmp_path, capsys):
        cone = write(tmp_path, "cone.txt", "2 2\n1 0\n-1 1\n")
        assert main(["hilbert", cone]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["1 0", "1 1"]


class TestPolytope:
    SIMPLEX_H = "hrep 2\nineq -1 0 0\nineq 0 -1 0\nineq 1 1 1\n"

    def test_h_to_v(self, tmp_path, capsys):
        h = write(tmp_path, "s.hrep", self.SIMPLEX_H)
        assert main(["polytope", "tovertices", h]) == 0
        out = capsys.readouterr().out
        assert "point 0 0" in out and "point 1 0" in out and "point 0 1" in out

    def test_empty(self, tmp_path, capsys):
        h = write(tmp_path, "e.hrep", "hrep 1\nineq -1 -1\nineq 1 0\n")
        assert main(["polytope", "tovertices", h]) == 1
        assert "empty" in capsys.readouterr().out

    def test_v_to_h_roundtrip(self, tmp_path, capsys):
        h = write(tmp_path, "s.hrep", self.SIMPLEX_H)
        main(["polytope", "tovertices", h])
        vtext = capsys.readouterr().out
        v = write(tmp_path, "s.vrep", vtext)
        assert main(["polytope", "tofacets", v]) == 0
        htext = capsys.readouterr().out
        assert htext.startswith("hrep 2")
        assert len(htext.strip().splitlines()) == 4  # three facets survive


class TestGauge:
    def test_simplex_value(self, tmp_path, capsys):
        p = write(tmp_path, "d2.pca", "pca 2\ngen 1 0\ngen 0 1\n")
        assert main(["gauge", p, "1/2", "1/4"]) == 0
        assert capsys.readouterr().out.strip() == "3/4"

    def test_pyramid_value(self, tmp_path, capsys):
        p = write(tmp_path, "pyr.pca", "pca 2\ngen 1/2 0\ngen 0 1\n")
        assert main(["gauge", p, "1", "1"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_infinite(self, tmp_path, capsys):
        p = write(tmp_path, "d1.pca", "pca 1\ngen 1\n")
        assert main(["gauge", p, "-1"]) == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_usage_error(self, tmp_path, capsys):
        p = write(tmp_path, "d1.pca", "pca 1\ngen 1\n")
        assert main(["gauge", p, "1", "2"]) == 2


class TestParserBuiltOnce:
    def test_nothing_leaks_between_calls(self, tmp_path, capsys, monkeypatch):
        parser = build_parser()
        assert build_parser() is parser
        parsed = []  # what each main call parsed, as it was then
        parse = parser.parse_args

        def spy(*args, **kwargs):
            namespace = parse(*args, **kwargs)
            parsed.append(dict(vars(namespace)))
            return namespace

        monkeypatch.setattr(parser, "parse_args", spy)
        a = write(tmp_path, "a.wa", HALF_OR_ONE)
        b = write(tmp_path, "b.wa", HALF_LOOP)
        out = tmp_path / "w.zz"
        # from state 2 the pair differs at once, and no witness is written
        assert main(["zigzag", a, b, "--left-state", "2", "-o", str(out)]) == 1
        assert "separating word: eps" in capsys.readouterr().out
        assert parsed[0]["left_state"] == 2 and parsed[0]["output"] == str(out)
        # the next calls start afresh: the file's state line, and no -o
        assert main(["equiv", a, b]) == 0
        assert capsys.readouterr().out.startswith("EQUIVALENT")
        assert "output" not in parsed[1] and parsed[1]["left_state"] is None
        assert main(["zigzag", a, b]) == 0
        assert capsys.readouterr().out.startswith("zigzag cubic qplus")
        assert parsed[2]["output"] is None and parsed[2]["left_state"] is None
        assert not out.exists()


class TestTraceDefaults:
    def test_default_depth_is_state_count(self, tmp_path, capsys):
        path = write(tmp_path, "b.wa", SWAP)
        assert main(["trace", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3  # eps, a, aa for 2 states over one letter


def _determinism_pair(tag):
    """A qplus pair whose middle node takes the extreme rays from
    cone_restriction, and lifted pairs whose witnesses go through
    cone_restriction (rplus), simplex_restriction with PRODUCT (unit), the
    five-node pipeline (pca), Hilbert bases (nat) and the kernel's closures
    and carrier coordinates (int, q, real)."""
    if tag == "qplus":
        return HALF_LOOP, SWAP
    rng = random.Random(f"determinism/{tag}")
    aut1, x1, aut2, x2 = lifted_pair(rng, SemiringTag(tag), 3, 1, ("a",))
    return automaton_to_text(aut1, x1), automaton_to_text(aut2, x2)


class TestCrossProcessDeterminism:
    @pytest.mark.parametrize("tag", ["qplus", "rplus", "unit", "pca",
                                     "nat", "int", "q", "real"])
    def test_witness_bytes_stable_under_hash_seeds(self, tmp_path, tag, capsys):
        import os, subprocess, sys
        import wazz
        # The children must import the same wazz as this process, installed
        # or not, so the directory holding the package goes on PYTHONPATH.
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(wazz.__file__)))
        left, right = _determinism_pair(tag)
        a = write(tmp_path, "a.wa", left)
        b = write(tmp_path, "b.wa", right)
        outputs, verdicts = set(), set()
        for seed in ("0", "1", "2"):
            out = tmp_path / f"w{seed}.zz"
            env = {"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                   "PYTHONPATH": package_root}
            proc = subprocess.run([sys.executable, "-m", "wazz.cli", "zigzag",
                                   a, b, "-o", str(out)], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.add(out.read_bytes())
            proc = subprocess.run([sys.executable, "-m", "wazz.cli", "verify", str(out)],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            verdicts.add(proc.stdout)
        assert len(outputs) == 1
        assert len(verdicts) == 1
        in_process = tmp_path / "w_in_process.zz"
        assert main(["zigzag", a, b, "-o", str(in_process)]) == 0
        assert outputs == {in_process.read_bytes()}
        capsys.readouterr()
        assert main(["verify", str(in_process)]) == 0
        assert verdicts == {capsys.readouterr().out}
