"""Byte pins of `wazz polytope`, `wazz gauge`, `wazz hilbert` and `wazz equiv`.

`test_polytope_route.py` compares the polytope route against an oracle that
prints through the same `hrep_to_text`/`vrep_to_text`, so a change of the
printers would pass it.  Here one sha256 over (name, input, exit code,
stdout, stderr) of each command on a fixed corpus pins the bytes: the 600
inputs of the route corpus, the Hilbert cones of `test_hilbert.py` with a
seeded draw in the same style, the gauge inputs of `test_cli.py` and
`test_span_facets.py` with a seeded draw of small subconvex hulls, and
README's worked example with seeded pairs of every tag for `equiv`.  The
first three hashes were recorded before the `Fraction` rows left
`wazz.linalg` and `wazz.polyhedra`, the `equiv` hash once `equiv` printed
the pair closure's echelon rows (HNF rows over Z); a deliberate change of
an output has to record them anew.
"""

import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

from wazz.automata import SemiringTag, automaton_to_text
from wazz.cli import main
from wazz.formats import fmt_rat

from genrandom import lifted_pair, two_lifts, zero_one_weight
from test_cli import HALF_LOOP, SWAP, SWAP_BAD
from test_polytope_route import corpus, hrep_text, vrep_text

POLYTOPE_SHA256 = "2df4e9554cb1ae8486fa792f83c455ea7cb571cd067ae262843a91a080cb08e5"
HILBERT_SHA256 = "fd7cb9e485422f1e9b5cbf1dbdf1c5ee3430dd522a1fbd6c361ea89d08efb872"
GAUGE_SHA256 = "5715f18ddb260906467b8f56a95a805dd451cb11c44c3562fafee14eda1cfec9"
EQUIV_SHA256 = "816be96dde5fc063a2a05d3cf3b9af703fe64cf745a32b03af5be6bb021c6f34"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(cases, tmp_path, monkeypatch):
    """sha256 over (name, input, exit code, stdout, stderr) of each case
    (name, input, argv before the file, argv after it).  The input is the
    text of the file `input`, or a pair of texts, of `input` and `right`;
    the files are read under fixed relative names, so diagnostics name no
    temporary directory."""
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for name, text, command, extra in cases:
        for path, body in zip(("input", "right"), (text,) if isinstance(text, str) else text):
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(body)
        h.update(repr((name, text, run(command + ["input"] + extra))).encode("utf-8"))
    return h.hexdigest()


def polytope_cases():
    for kind, text_of in (("tovertices", hrep_text), ("tofacets", vrep_text)):
        for i, rep in enumerate(corpus(kind, 300)):
            yield f"{kind}/{i}", text_of(rep), ["polytope", kind], []


def hilbert_cases():
    fixed = [[(1, 0), (0, 1)], [(1, 0), (-1, 1)], [(1,), (0,)], [(1, -1)], [(1,)],
             [(0,), (0,)]]
    rng = random.Random("output-pin/hilbert")
    drawn = [[tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(k)]
             for k, m in ((rng.randint(2, 3), rng.randint(1, 3)) for _ in range(40))]
    for i, rows in enumerate(fixed + drawn):
        text = f"{len(rows)} {len(rows[0])}\n" + "".join(
            " ".join(map(str, r)) + "\n" for r in rows)
        yield f"hilbert/{i}", text, ["hilbert"], []


def gauge_cases():
    fixed = [("pca 2\ngen 1 0\ngen 0 1\n", ["1/2", "1/4"]),
             ("pca 2\ngen 1/2 0\ngen 0 1\n", ["1", "1"]),
             ("pca 1\ngen 1\n", ["-1"]),
             ("pca 1\ngen 1\n", ["1", "2"]),
             ("pca 2\ngen 1 0\ngen 0 1\ngen 1 1\n", ["1", "1"])]
    rng = random.Random("output-pin/gauge")
    drawn = []
    for _ in range(60):
        dim = rng.randint(1, 3)
        gens = [[F(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(dim)]
                for _ in range(rng.randint(1, 4))]
        text = f"pca {dim}\n" + "".join(f"gen {' '.join(map(fmt_rat, g))}\n" for g in gens)
        drawn.append((text, [fmt_rat(F(rng.randint(-2, 4), rng.randint(1, 3)))
                             for _ in range(dim)]))
    for i, (text, point) in enumerate(fixed + drawn):
        yield f"gauge/{i}", text, ["gauge"], point


def equiv_cases():
    """README's worked example, equivalent and separated, then seeded pairs
    of every tag with one or two letters: a lifted pair, two lifts of one
    automaton, and a lifted pair with one weight set to zero, which is most
    often separated."""
    yield "equiv/readme", (HALF_LOOP, SWAP), ["equiv"], ["right"]
    yield "equiv/readme-flipped", (HALF_LOOP, SWAP_BAD), ["equiv"], ["right"]
    for tag in SemiringTag:
        rng = random.Random(f"output-pin/equiv/{tag.value}")
        for i in range(6):
            alphabet = ("a", "b")[:1 + i % 2]
            k = rng.randint(1, 3)
            aut1, x1, aut2, x2 = lifted_pair(rng, tag, k, rng.randint(0, 2), alphabet)
            pairs = {"lift": (aut1, x1, aut2, x2),
                     "two-lifts": two_lifts(rng, tag, k, rng.randint(1, 2), alphabet),
                     "perturbed": (zero_one_weight(rng, aut1), x1, aut2, x2)}
            for kind, (a1, y1, a2, y2) in pairs.items():
                texts = automaton_to_text(a1, y1), automaton_to_text(a2, y2)
                yield f"equiv/{tag.value}/{kind}/{i}", texts, ["equiv"], ["right"]


def test_polytope_bytes_are_pinned(tmp_path, monkeypatch):
    assert digest(polytope_cases(), tmp_path, monkeypatch) == POLYTOPE_SHA256


def test_hilbert_bytes_are_pinned(tmp_path, monkeypatch):
    assert digest(hilbert_cases(), tmp_path, monkeypatch) == HILBERT_SHA256


def test_gauge_bytes_are_pinned(tmp_path, monkeypatch):
    assert digest(gauge_cases(), tmp_path, monkeypatch) == GAUGE_SHA256


def test_equiv_bytes_are_pinned(tmp_path, monkeypatch):
    assert digest(equiv_cases(), tmp_path, monkeypatch) == EQUIV_SHA256
