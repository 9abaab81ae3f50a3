import random
import sys
import time

import pytest

from wazz import pca, zigzag
from wazz.cli import MAX_DIGITS, TRACE_LETTERS, build_parser, main
from wazz.automata import SemiringTag, automaton_to_text, parse_automaton
from wazz.formats import ParseError
from wazz.zigzag import parse_zigzag, zigzag_to_text

from genrandom import lifted_pair
from test_formats import SAMPLE_WA, _with_line
from test_zigzag import dependent_nat_witness

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

    @pytest.mark.usefixtures("paper_routes")
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

    @pytest.mark.parametrize("target, reason", [("missing/w.zz", "No such file or directory"),
                                                 (".", "Is a directory")])
    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys, target, reason):
        a = write(tmp_path, "a.wa", HALF_LOOP)
        b = write(tmp_path, "b.wa", SWAP)
        out = str(tmp_path / target)
        assert main(["zigzag", a, b, "-o", out]) == 2
        assert capsys.readouterr() == ("", f"{out}:0: cannot write file: {reason}\n")

    @pytest.mark.usefixtures("paper_routes")
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

    @pytest.mark.usefixtures("paper_routes")
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
        # the verifier compares no traces: the new output breaks the square
        # of the morphism into the right endpoint at a middle generator
        assert "morphism-square[1]: output weight changes along generator 1 0 1" in stdout

    def test_verify_binds_the_witness_to_its_inputs(self, tmp_path, capsys):
        a = write(tmp_path, "a.wa", HALF_LOOP)
        b = write(tmp_path, "b.wa", SWAP)
        out = str(tmp_path / "w.zz")
        assert main(["zigzag", a, b, "-o", out]) == 0
        capsys.readouterr()
        assert main(["verify", out]) == 0
        alone = capsys.readouterr().out
        checks = int(alone.split("(")[1].split()[0])
        assert main(["verify", out, a, b]) == 0
        assert capsys.readouterr().out == f"VALID ({checks + 2} checks passed)\n"
        # the option picks the state as `equiv` does: here the file's own
        assert main(["verify", out, a, b, "--right-state", "1"]) == 0
        assert main(["verify", out, a, b, "--right-state", "2"]) == 1
        assert capsys.readouterr().out.splitlines()[-2:] == [
            f"INVALID (1 of {checks + 2} checks failed)",
            "  input[right]: endpoint is not the input's state"]

    @pytest.mark.parametrize("tag", ["qplus", "q", "unit", "pca", "nat"])
    def test_a_valid_witness_of_another_pair_is_invalid(self, tag, tmp_path, capsys):
        """Only the two input checks fail: the witness is valid, of other automata."""
        paths = {}
        for name in ("p", "q"):
            rng = random.Random(f"verify-inputs/{tag}/{name}")
            aut1, x1, aut2, x2 = lifted_pair(rng, SemiringTag(tag), 2, 1, ("a", "b"))
            paths[name] = (write(tmp_path, f"{name}1.wa", automaton_to_text(aut1, x1)),
                           write(tmp_path, f"{name}2.wa", automaton_to_text(aut2, x2)))
        out = str(tmp_path / "w.zz")
        assert main(["zigzag", *paths["p"], "-o", out]) == 0
        assert main(["verify", out, *paths["p"]]) == 0
        capsys.readouterr()
        assert main(["verify", out, *paths["q"]]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("INVALID (2 of ")
        assert [line.split(":")[0] for line in lines[1:]] == ["  input[left]", "  input[right]"]

    @pytest.mark.parametrize("old, new, detail", [
        ("semiring qplus", "semiring rplus", "witness tag qplus is not the input's rplus"),
        ("a\n", "b\n", "witness alphabet is not the input's"),
        ("output 1/2", "output 1/3", "end node's output is not the input's"),
        ("trans a\n1/2", "trans a\n1/3", "end node's matrix of letter 'a' is not the input's"),
        ("state 1", "state 1/2", "endpoint is not the input's state"),
    ])
    def test_each_input_difference_is_named(self, old, new, detail, tmp_path, capsys):
        a = write(tmp_path, "a.wa", HALF_LOOP)
        out = str(tmp_path / "w.zz")
        assert main(["zigzag", a, a, "-o", out]) == 0
        changed = HALF_LOOP.replace(old, new)
        assert changed != HALF_LOOP
        b = write(tmp_path, "b.wa", changed)
        capsys.readouterr()
        assert main(["verify", out, b, b]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"  input[{side}]: {detail}" for side in ("left", "right")]

    def test_trailing_input_names_the_stray_line(self, tmp_path, capsys):
        a = write(tmp_path, "a.wa", HALF_LOOP)
        w = str(tmp_path / "w.zz")
        assert main(["zigzag", a, a, "-o", w]) == 0
        text = open(w).read()
        capsys.readouterr()
        for extra, offset in (("right 1\n", 1), ("\n# a note\nright 1\n", 3)):
            bad = write(tmp_path, "bad.zz", text + extra)
            assert main(["verify", bad]) == 2
            line = text.count("\n") + offset
            assert capsys.readouterr().err == f"{bad}:{line}: trailing input after witness\n"

    def test_verify_needs_both_inputs(self, tmp_path, capsys):
        a = write(tmp_path, "a.wa", HALF_LOOP)
        out = str(tmp_path / "w.zz")
        assert main(["zigzag", a, a, "-o", out]) == 0
        assert main(["verify", out, a]) == 2
        assert main(["verify", out, "--left-state", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: verify takes the witness alone or with both input automata\n"
            "error: --left-state and --right-state need the input automata\n")

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
        # (801, 801, 800) is not in N{(2, 2, 0), (0, 0, 2), (1, 1, 1)}, a
        # dependent set: the descent would enter about 321000 targets
        assert zigzag.MONOID_STEP_BUDGET < 801 * 801 // 2
        path = write(tmp_path, "deep.zz", zigzag_to_text(dependent_nat_witness(801, 800)))
        assert main(["verify", path]) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0].startswith("INVALID (1 of ")
        assert lines[1:] == ["  relating[1]: N-monoid membership search exceeded its "
                             f"budget of {zigzag.MONOID_STEP_BUDGET} steps"]
        assert err == ""

    @pytest.mark.usefixtures("paper_routes")
    def test_internal_error_exit_code(self, tmp_path, capsys, monkeypatch):
        # a fixed-point system without solution on a valid coalgebra is a bug
        monkeypatch.setattr(pca, "fixed_point", lambda out, trans: None)
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

    @pytest.mark.parametrize("text, line, message", [
        ("2\n1 0\n0 1\n", 1, "expected dimension line: <k> <m>"),
        ("1 1\n1/2\n", 2, "entry 1/2 must be an integer"),
        ("2 2\n1 0\n0 1\n5 5\n", 4, "trailing input after the constraint matrix"),
        # the stray row is named, not the last row read
        ("2 2\n1 0\n0 1\n\n# more\n5 5\n", 6, "trailing input after the constraint matrix"),
    ])
    def test_cone_diagnostics_name_their_line(self, tmp_path, capsys, text, line, message):
        cone = write(tmp_path, "c.txt", text)
        assert main(["hilbert", cone]) == 2
        assert capsys.readouterr().err == f"{cone}:{line}: {message}\n"


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

    @pytest.mark.parametrize("name, direction, text, line, message", [
        ("h.hrep", "tovertices", "hrep\nineq 1 0\n", 1, "expected: hrep <dim>"),
        ("h.hrep", "tovertices", "hrep 1\nineq 1 0\npoint 1\n", 3,
         "unexpected directive 'point'"),
        ("v.vrep", "tofacets", "vrep 1\npoint 1\n\nineq 1 0\n", 4,
         "unexpected directive 'ineq'"),
    ])
    def test_readers_name_file_and_line(self, tmp_path, capsys, name, direction, text, line,
                                        message):
        path = write(tmp_path, name, text)
        assert main(["polytope", direction, path]) == 2
        assert capsys.readouterr().err == f"{path}:{line}: {message}\n"

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

    def test_reader_names_file_and_line(self, tmp_path, capsys):
        p = write(tmp_path, "d1.pca", "pca 1\ngen 1\npoint 1\n")
        assert main(["gauge", p, "1"]) == 2
        assert capsys.readouterr().err == f"{p}:3: unexpected directive 'point'\n"


class TestParserBuiltOnce:
    def test_nothing_leaks_between_calls(self, tmp_path, capsys, monkeypatch):
        parser = build_parser()
        assert build_parser() is parser
        parsed = []  # what each main call parsed, as it was then

        def spy(parse):
            def wrapped(*args, **kwargs):
                namespace, rest = parse(*args, **kwargs)
                parsed.append(dict(vars(namespace)))
                return namespace, rest
            return wrapped

        # each command's own parser reads the arguments after its name
        for command in ("equiv", "zigzag"):
            sub = parser.commands[command]
            monkeypatch.setattr(sub, "parse_known_args", spy(sub.parse_known_args))
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


# a q pair, not equivalent from e_1 on the left (`--left-s 1`), equivalent
# from the left file's state line
DISPATCH_LEFT = """\
semiring q
alphabet a b
states 1
output 1
trans a
1/2
trans b
-1
state 3/2
"""

DISPATCH_RIGHT = """\
semiring q
alphabet a b
states 2
output 1 -3/2
trans a
1/2 0
-3/4 0
trans b
-1 0
3/2 0
state 0 -1
"""

_USAGE = "usage: wazz [-h] {trace,equiv,zigzag,verify,hilbert,polytope,gauge} ...\n"
_EQUIV_USAGE = ("usage: wazz equiv [-h] [--left-state LEFT_STATE] [--right-state RIGHT_STATE]\n"
                "                  left right\n")


class TestDispatch:
    """Each command's own parser reads its arguments; the exit code, stdout
    and stderr of these command lines are those of the top-level parser
    alone, recorded before the change (argparse of Python 3.11, 80
    columns)."""

    PINNED = [
        ([], 2, "", _USAGE + "wazz: error: the following arguments are required: command\n"),
        (["--help"], 0, _USAGE + """
Exact trace equivalence of weighted automata with machine-checkable zig-zag
witnesses.

positional arguments:
  {trace,equiv,zigzag,verify,hilbert,polytope,gauge}
    trace               print the trace table of a configuration
    equiv               decide trace equivalence
    zigzag              construct a zig-zag witness
    verify              independently re-check a witness file
    hilbert             Hilbert basis of an integer cone x.W >= 0
    polytope            double description conversions
    gauge               Minkowski functional of a subconvex hull

options:
  -h, --help            show this help message and exit
""", ""),
        (["equiv", "--help"], 0, _EQUIV_USAGE + """
positional arguments:
  left
  right

options:
  -h, --help            show this help message and exit
  --left-state LEFT_STATE
                        1-based basis state for the left automaton
  --right-state RIGHT_STATE
                        1-based basis state for the right automaton
""", ""),
        (["equiv", "a.wa"], 2, "",
         _EQUIV_USAGE + "wazz equiv: error: the following arguments are required: right\n"),
        (["equiv", "a.wa", "b.wa", "c.wa"], 2, "",
         _USAGE + "wazz: error: unrecognized arguments: c.wa\n"),
        (["frobnicate", "a.wa"], 2, "",
         _USAGE + "wazz: error: argument command: invalid choice: 'frobnicate' (choose from "
                  "'trace', 'equiv', 'zigzag', 'verify', 'hilbert', 'polytope', 'gauge')\n"),
        (["equiv", "a.wa", "b.wa", "--left-s", "1"], 1,
         "NOT EQUIVALENT, separating word: eps\n", ""),
        (["zigzag", "a.wa", "b.wa", "--output=w.zz"], 0,
         "witness with 3 nodes written to w.zz\n", ""),
    ]

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="argparse's texts were recorded with Python 3.11")
    @pytest.mark.parametrize("argv, code, out, err", PINNED,
                             ids=[" ".join(argv) or "(none)" for argv, *_ in PINNED])
    def test_pinned(self, tmp_path, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        write(tmp_path, "a.wa", DISPATCH_LEFT)
        write(tmp_path, "b.wa", DISPATCH_RIGHT)
        assert main(argv) == code
        assert capsys.readouterr() == (out, err)

    def test_the_file_state_without_the_option(self, tmp_path, capsys):
        a = write(tmp_path, "a.wa", DISPATCH_LEFT)
        b = write(tmp_path, "b.wa", DISPATCH_RIGHT)
        assert main(["equiv", a, b]) == 0
        assert capsys.readouterr().out.startswith("EQUIVALENT")


class TestLineEnds:
    """The command line reads a file as the readers see it: lines end at a
    line feed alone."""

    def test_lone_carriage_return_in_a_line(self, tmp_path, capsys):
        path = tmp_path / "ws.wa"
        path.write_bytes(_with_line(SAMPLE_WA, 4, "output 1/2\r-1").encode())
        assert main(["equiv", str(path), str(path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"{path}:4: whitespace other than space or tab: '\\r'\n")

    def test_lone_carriage_return_between_lines(self, tmp_path, capsys):
        path = tmp_path / "cr.wa"
        path.write_bytes(b"semiring q\ralphabet a\nstates 1\noutput 1\ntrans a\n1\n")
        assert main(["equiv", str(path), str(path)]) == 2
        assert capsys.readouterr().err == (
            f"{path}:1: whitespace other than space or tab: '\\r'\n")

    @pytest.mark.parametrize("command", ["equiv", "zigzag"])
    def test_crlf_files_read_as_their_lf_copies(self, tmp_path, capsys, command):
        outs = []
        for name, eol in (("lf", b"\n"), ("crlf", b"\r\n")):
            paths = []
            for side, text in (("l", DISPATCH_LEFT), ("r", DISPATCH_RIGHT)):
                path = tmp_path / f"{name}-{side}.wa"
                path.write_bytes(text.encode().replace(b"\n", eol))
                paths.append(str(path))
            assert main([command] + paths) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1] and outs[0].out and not outs[0].err


class TestEncoding:
    """A file is its bytes decoded as UTF-8, and a byte that is not UTF-8
    fails with the file and the line it is on."""

    def test_bad_byte_in_an_automaton(self, tmp_path, capsys):
        bad, good = tmp_path / "bad.wa", write(tmp_path, "good.wa", SAMPLE_WA)
        bad.write_bytes(SAMPLE_WA.encode().replace(b"output 1/2", b"output 1/2\xff"))
        assert main(["equiv", str(bad), good]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"{bad}:4: ")

    def test_bad_byte_in_a_witness(self, tmp_path, capsys):
        a = write(tmp_path, "a.wa", SAMPLE_WA)
        w = tmp_path / "w.zz"
        assert main(["zigzag", a, a, "-o", str(w)]) == 0
        lines = w.read_bytes().split(b"\n")
        assert lines[3].startswith(b"node 0 ")
        lines[3] += b" \xc3"  # a lead byte with no continuation
        w.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["verify", str(w)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"{w}:4: ")


def shift_automaton(n, weight, tag="q"):
    """One-letter automaton e_i -> weight * e_(i+1), output on the last
    state: the word a^k maps e_1 to weight^k e_(k+1)."""
    rows = [" ".join(weight if j == i + 1 else "0" for j in range(n)) for i in range(n)]
    return "\n".join([f"semiring {tag}", "alphabet a", f"states {n}",
                      "output " + " ".join(["0"] * (n - 1) + ["1"]), "trans a", *rows]) + "\n"


class TestDigitBound:
    def test_answers_beyond_the_interpreter_default(self, tmp_path, capsys):
        # the lattice basis vector of a^79 has a 4757-digit entry, past
        # Python's default bound of 4300 digits on an integer's text
        before = sys.get_int_max_str_digits()
        a = write(tmp_path, "a.wa", shift_automaton(80, str(2 ** 200)))
        n = write(tmp_path, "n.wa", shift_automaton(80, str(2 ** 200), "nat"))
        w = str(tmp_path / "w.zz")
        assert main(["equiv", n, n]) == 0
        out = capsys.readouterr().out
        assert out.startswith("EQUIVALENT\npair closure generated by 80 elements:")
        assert max(len(t) for t in out.split()) == 4757
        assert main(["zigzag", a, a, "-o", w]) == 0
        assert main(["verify", w]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("VALID")
        assert sys.get_int_max_str_digits() == before

    def test_answer_over_the_bound_is_its_own_exit_code(self, tmp_path, capsys):
        # a 60001-digit weight is a valid literal; its square is not printable.
        # A lattice's bases hold it: the pair closure of the nat shift, the
        # middle node of a nat span and the maps of an int cospan.  The
        # echelon rows of a q pair closure are primitive and hold no weight,
        # and the reduced basis of a q cospan holds only the weight itself
        before = sys.get_int_max_str_digits()
        weight = "1" + "0" * 60000
        a = write(tmp_path, "a.wa", shift_automaton(3, weight))
        n = write(tmp_path, "n.wa", shift_automaton(3, weight, "nat"))
        i = write(tmp_path, "i.wa", shift_automaton(3, weight, "int"))
        w = tmp_path / "w.zz"
        for argv in (["equiv", n, n], ["zigzag", n, n, "-o", str(w)],
                     ["zigzag", i, i, "-o", str(w)]):
            assert main(argv) == 4
            err = capsys.readouterr().err
            assert err == f"error: the answer has a number of over {MAX_DIGITS} digits\n"
        assert not w.exists()
        assert main(["zigzag", a, a, "-o", str(w)]) == 0
        assert max(len(t) for t in w.read_text().split()) == len(weight)
        assert main(["verify", str(w)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("VALID")
        assert sys.get_int_max_str_digits() == before

    def test_literal_over_the_bound_is_a_parse_error(self, tmp_path, capsys):
        a = write(tmp_path, "a.wa", shift_automaton(2, "1" * (MAX_DIGITS + 1)))
        assert main(["equiv", a, a]) == 2
        assert f"a.wa:6: Exceeds the limit ({MAX_DIGITS} digits)" in capsys.readouterr().err

    @pytest.mark.parametrize("name, argv, line", [
        ("a.wa", ["equiv", "{path}", "{path}"], 3),
        ("w.zz", ["verify", "{path}"], 3),
        ("h.hrep", ["polytope", "tovertices", "{path}"], 1),
    ])
    def test_integer_field_over_the_bound_is_a_parse_error(self, tmp_path, capsys, name, argv,
                                                           line):
        # a count, a dimension or a state number past MAX_DIGITS fails at its line
        big = "1" * (MAX_DIGITS + 1)
        a = shift_automaton(2, "1")
        text = {"a.wa": a.replace("states 2", f"states {big}"),
                "h.hrep": f"hrep {big}\nineq 1 0\n"}.get(name)
        if text is None:
            assert main(["zigzag", write(tmp_path, "a.wa", a), write(tmp_path, "a.wa", a),
                         "-o", str(tmp_path / name)]) == 0
            text = (tmp_path / name).read_text().replace("\nnodes 3\n", f"\nnodes {big}\n")
        path = write(tmp_path, name, text)
        capsys.readouterr()
        assert main([arg.format(path=path) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"{path}:{line}: Exceeds the limit")

    def test_integer_field_outside_main_is_a_parse_error(self):
        # past the interpreter's own bound, with no MAX_DIGITS in force
        big = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError) as info:
            parse_automaton(shift_automaton(2, "1").replace("states 2", f"states {big}"), "a.wa")
        assert str(info.value).startswith("a.wa:3: Exceeds the limit")


class TestTraceDefaults:
    def test_default_depth_is_state_count(self, tmp_path, capsys):
        path = write(tmp_path, "b.wa", SWAP)
        assert main(["trace", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3  # eps, a, aa for 2 states over one letter

    @pytest.mark.parametrize("states, depth, counts", [
        (20, None, "2097151 words, 39845890 letters"),
        (16, "17", "262143 words, 4194306 letters"),
        (5, "65", "at least 36893488147419103231 words, "
                  "at least 2324289753287403503618 letters"),
    ])
    def test_trace_over_the_letter_budget_is_refused(self, tmp_path, capsys, states, depth,
                                                     counts):
        # two letters: the words up to length d number 2^(d+1) - 1, none of them listed
        text = shift_automaton(states, "1/2").replace("alphabet a", "alphabet a b")
        path = write(tmp_path, "t.wa", text + "trans b\n" + text.split("trans a\n")[1])
        argv = ["trace", path] + ([] if depth is None else ["--depth", depth])
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: a trace to depth {depth or states} lists {counts} in "
                                  f"all, past {TRACE_LETTERS}; give a smaller --depth\n")

    def test_trace_within_the_letter_budget_is_listed(self, tmp_path, capsys):
        # one letter: the words to depth d hold d (d + 1) / 2 letters, 1999000 to depth 1999
        path = write(tmp_path, "h.wa", HALF_LOOP)
        assert main(["trace", path, "--depth", "1999"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2000
        assert main(["trace", path, "--depth", "2000"]) == 2
        assert "lists 2001 words, 2001000 letters in all" in capsys.readouterr().err


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
