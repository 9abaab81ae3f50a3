"""Byte pins of `wazz polytope`, `wazz gauge` and `wazz hilbert`.

`test_polytope_route.py` compares the polytope route against an oracle that
prints through the same `hrep_to_text`/`vrep_to_text`, so a change of the
printers would pass it.  Here one sha256 over (name, input, exit code,
stdout, stderr) of each command on a fixed corpus pins the bytes: the 600
inputs of the route corpus, the Hilbert cones of `test_hilbert.py` with a
seeded draw in the same style, and the gauge inputs of `test_cli.py` and
`test_span_facets.py` with a seeded draw of small subconvex hulls.  The
hashes were recorded before the `Fraction` rows left `wazz.linalg` and
`wazz.polyhedra`; a deliberate change of an output has to record them anew.
"""

import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

from wazz.cli import main
from wazz.formats import fmt_rat

from test_polytope_route import corpus, hrep_text, vrep_text

POLYTOPE_SHA256 = "2df4e9554cb1ae8486fa792f83c455ea7cb571cd067ae262843a91a080cb08e5"
HILBERT_SHA256 = "fd7cb9e485422f1e9b5cbf1dbdf1c5ee3430dd522a1fbd6c361ea89d08efb872"
GAUGE_SHA256 = "5715f18ddb260906467b8f56a95a805dd451cb11c44c3562fafee14eda1cfec9"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(cases, tmp_path, monkeypatch):
    """sha256 over (name, input, exit code, stdout, stderr) of each case
    (name, file text, argv after the file); the file is read under a fixed
    relative name, so diagnostics name no temporary directory."""
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for name, text, command, extra in cases:
        with open("input", "w", encoding="utf-8", newline="") as f:
            f.write(text)
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


def test_polytope_bytes_are_pinned(tmp_path, monkeypatch):
    assert digest(polytope_cases(), tmp_path, monkeypatch) == POLYTOPE_SHA256


def test_hilbert_bytes_are_pinned(tmp_path, monkeypatch):
    assert digest(hilbert_cases(), tmp_path, monkeypatch) == HILBERT_SHA256


def test_gauge_bytes_are_pinned(tmp_path, monkeypatch):
    assert digest(gauge_cases(), tmp_path, monkeypatch) == GAUGE_SHA256
