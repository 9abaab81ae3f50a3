"""The benchmark's tracer looks up each function it times by name; a name
that leaves its module would otherwise show only when a traced benchmark run
raises AttributeError.  It also reads a size off each result it records, so
the sizes are checked against what the commands print."""

import importlib
import importlib.util
import random
from pathlib import Path

import pytest

from genrandom import lifted_pair
from wazz import cli
from wazz.automata import SemiringTag, automaton_to_text

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_is_a_function_of_its_module():
    tracing = load_tracing()
    assert tracing.TRACED
    for module, name in tracing.TRACED:
        target = getattr(importlib.import_module(f"wazz.{module}"), name, None)
        assert callable(target), f"wazz.{module}.{name}"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def witness_counts(text):
    """(node dims, generator counts) read off a witness's node headers."""
    heads = [line.split() for line in text.splitlines() if line.startswith("node ")]
    return [int(h[4]) for h in heads], [int(h[6]) for h in heads]


def traced_ops(tmp_path, capsys, aut1, x1, aut2, x2):
    """(the tracer, the stdout of each op, the witness path) of a traced
    `equiv`, `zigzag -o` and `verify` of the pair, op ids 0, 1 and 2."""
    tracing = load_tracing()
    left, right, witness = (str(tmp_path / name) for name in ("l.wa", "r.wa", "w.zz"))
    for path, aut, x in ((left, aut1, x1), (right, aut2, x2)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(automaton_to_text(aut, x))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outs = []
        for op, argv in enumerate((["equiv", left, right], ["zigzag", left, right, "-o", witness],
                                   ["verify", witness])):
            assert tracer.call_root(op, cli.main, argv) == 0
            outs.append(capsys.readouterr().out)
    finally:
        tracer.uninstall()
    return tracer, outs, witness


def traced_sizes(tracer):
    """(function names by key index, {(op, function): the sizes of its spans})."""
    names = [name for _, name in tracer.keys]
    sizes = {}
    for op, _, index, _, _, size in tracer.spans:
        if names[index] in SIZED:
            sizes.setdefault((op, names[index]), []).append(size)
    return names, sizes


SIZED = {"pair_submodule", "nat_restriction", "cone_restriction", "simplex_restriction",
         "cubic_zigzag", "ghat_zigzag", "verify_zigzag"}


@pytest.mark.usefixtures("paper_routes")
@pytest.mark.parametrize("tag", ["q", "nat", "qplus", "unit", "pca"])
def test_traced_sizes_count_vectors(tag, tmp_path, capsys):
    """Each traced size is read off the real result of its function, on the
    paper's routes: the pair closure's dimension, the restriction's and the
    middle node's generator counts (a ring tag's sink's), and the
    verifier's checks.  Each equals the number of
    vectors (or checks) the command prints, so a change of representation
    cannot silently change a `--trace 1` layer size."""
    aut1, x1, aut2, x2 = lifted_pair(random.Random(f"traced-sizes/{tag}"),
                                     SemiringTag(tag), 2, 1, ("a", "b"))
    tracer, outs, witness = traced_ops(tmp_path, capsys, aut1, x1, aut2, x2)
    names, sizes = traced_sizes(tracer)

    lines = outs[0].splitlines()
    closure = int(lines[1].split()[4])
    assert len(lines) == 2 + closure
    assert all(len(line.split()) == aut1.n + aut2.n for line in lines[2:])
    assert sizes[0, "pair_submodule"] == [closure]

    with open(witness, encoding="utf-8") as fh:
        dims, gens = witness_counts(fh.read())
    middle = gens[len(gens) // 2]
    build = "ghat_zigzag" if tag == "pca" else "cubic_zigzag"
    restriction = {"nat": "nat_restriction", "qplus": "cone_restriction",
                   "unit": "simplex_restriction", "pca": "simplex_restriction"}.get(tag)
    assert sizes[1, build] == [middle]
    if restriction:
        assert sizes[1, restriction] == [middle]
    else:  # the ring tags' cospan runs no pair closure: its sink is free on unit vectors
        assert (1, "pair_submodule") not in sizes
        assert middle == dims[len(dims) // 2]
    assert outs[2] == f"VALID ({sizes[2, 'verify_zigzag'][0]} checks passed)\n"
    assert {name for _, name in sizes} == SIZED & {
        "pair_submodule", build, restriction, "verify_zigzag"}
    # the pyramid normal is one `linalg.solve`, timed under that name
    solved = {op for op, _, index, _, _, _ in tracer.spans if names[index] == "solve"}
    assert solved == ({1} if tag == "pca" else set())


@pytest.mark.usefixtures("paper_routes")
@pytest.mark.parametrize("tag", ["qplus", "rplus", "unit", "pca"])
def test_traced_zigzag_records_the_closure_and_its_restriction(tag, tmp_path, capsys):
    """The span producers hand the closure's echelon rows to the restriction
    but still call `pair_submodule` and the restriction by name, so a traced
    `zigzag` that takes the paper's route records both: the closure's size
    is the dimension `equiv` prints, and the double description metrics of
    the benchmark's `restrict-unary` and `ghat-pca` workloads do not read 0
    on the pairs that fall back to it.  A cospan runs neither."""
    rng = random.Random(f"traced-layers/{tag}")
    while True:  # a nonzero start, so that the closure and the restriction are not empty
        aut1, x1, aut2, x2 = lifted_pair(rng, SemiringTag(tag), 3, 1, ("a",))
        if any(x1[1]):
            break
    tracer, outs, _ = traced_ops(tmp_path, capsys, aut1, x1, aut2, x2)
    _, sizes = traced_sizes(tracer)
    closure = int(outs[0].splitlines()[1].split()[4])
    assert closure > 0
    assert sizes[1, "pair_submodule"] == [closure]
    restriction = "cone_restriction" if tag in ("qplus", "rplus") else "simplex_restriction"
    assert len(sizes[1, restriction]) == 1
    metrics = tracer.summary(lambda op: 1.0)
    assert metrics["automata.closure_dim"] == 2 * closure  # equiv's closure and zigzag's
    assert metrics["polyhedra.dd_calls"] == 1
    assert metrics["polyhedra.dd_outputs"] == sizes[1, restriction][0]
    assert metrics["polyhedra.dd_ms"] > 0
