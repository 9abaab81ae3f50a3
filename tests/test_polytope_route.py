"""`wazz polytope` on the one integer route against the ambient conversions
it replaced, and a spy that the route builds no `Mat` and runs no `Fraction`
elimination.

The oracle conversions (`dd_oracle.dd_h_to_v`, `dd_oracle.dd_v_to_h`) take
the lineality from the `Fraction` kernel of the constraint matrix and add
each lineality vector to the double description as a pair of opposite
normals.  On a seeded corpus of H and V inputs, with lineality, unbounded
directions, infeasible and empty inputs and dimension 0, `wazz polytope
tovertices|tofacets` must print the same bytes and exit with the same code
on both routes."""

import random
import sys
from fractions import Fraction as F

import pytest

from wazz import cli, linalg
from wazz.cli import main
from wazz.formats import fmt_rat
from wazz.polyhedra import HRep, VRep, cone_rays, dd_h_to_v, dd_v_to_h

import dd_oracle


def rand_scalar(rng):
    return F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))


def rand_vectors(rng, dim, count):
    """count vectors of length dim: random ones, and now and then all drawn
    from a subspace of lower rank, repeated, negated or zero."""
    rank = rng.randint(0, dim - 1) if dim and rng.random() < 0.35 else dim
    basis = [[rand_scalar(rng) for _ in range(dim)] for _ in range(rank)]
    out = []
    for _ in range(count):
        roll = rng.random()
        if out and roll < 0.1:
            out.append(rng.choice(out))
        elif out and roll < 0.2:
            out.append(tuple(-a for a in rng.choice(out)))
        elif roll < 0.25:
            out.append((F(0),) * dim)
        else:
            cs = [rng.randint(-2, 2) for _ in basis]
            out.append(tuple(sum((c * b[j] for c, b in zip(cs, basis)), F(0))
                             for j in range(dim)))
    return out


def rand_hrep(rng):
    dim = rng.randint(0, 5)
    normals = rand_vectors(rng, dim, rng.randint(0, 2 * dim + 2))
    return HRep(dim, tuple((a, F(rng.randint(-2, 3), rng.randint(1, 2))) for a in normals))


def rand_vrep(rng):
    dim = rng.randint(0, 5)
    points = rand_vectors(rng, dim, rng.choice((0, 1, 1, 2, 3, 4)))
    return VRep(dim, tuple(points), tuple(rand_vectors(rng, dim, rng.randint(0, 3))))


def fmt_vec(v):
    return " ".join(map(fmt_rat, v))


def hrep_text(h):
    return "".join([f"hrep {h.dim}\n"] + [f"ineq {fmt_vec(tuple(a) + (b,))}\n"
                                           for a, b in h.ineqs])


def vrep_text(v):
    return "".join([f"vrep {v.dim}\n"] + [f"point {fmt_vec(p)}\n" for p in v.points]
                   + [f"direction {fmt_vec(d)}\n" for d in v.directions])


def corpus(kind, count):
    rng = random.Random(f"polytope-route/{kind}")
    make = rand_hrep if kind == "tovertices" else rand_vrep
    return [make(rng) for _ in range(count)]


def homogenized(kind, rep):
    """(normals, dim) of the cone whose double description the conversion runs."""
    if kind == "tovertices":
        normals = [tuple(a) + (-b,) for a, b in rep.ineqs] + [(0,) * rep.dim + (-1,)]
    else:
        normals = [tuple(p) + (1,) for p in rep.points] + [tuple(d) + (0,)
                                                          for d in rep.directions]
    return normals, rep.dim + 1


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("kind", ["tovertices", "tofacets"])
def test_cli_matches_ambient_oracle(kind, tmp_path, capsys, monkeypatch):
    path = tmp_path / "input"
    seen = {"dim0": 0, "lineality": 0, "directions": 0, "empty": 0}
    for rep in corpus(kind, 300):
        path.write_text(hrep_text(rep) if kind == "tovertices" else vrep_text(rep))
        argv = ["polytope", kind, str(path)]
        got = run(argv, capsys)
        with monkeypatch.context() as mp:
            mp.setattr(cli, "dd_h_to_v", dd_oracle.dd_h_to_v)
            mp.setattr(cli, "dd_v_to_h", dd_oracle.dd_v_to_h)
            want = run(argv, capsys)
        assert got == want, argv[1:] + [path.read_text()]
        seen["dim0"] += rep.dim == 0
        seen["empty"] += got[1] == "empty\n" or kind == "tofacets" and not rep.points
        seen["directions"] += "direction" in got[1] or kind == "tofacets" and bool(
            rep.directions)
        seen["lineality"] += bool(rep.dim and cone_rays(*homogenized(kind, rep))[0])
    assert min(seen.values()) >= 30, seen


@pytest.fixture
def elimination_calls(monkeypatch):
    """Records each `linalg.rref` call, wherever a wazz module holds it, and
    each `Mat` built through its constructor or `_of_cols`."""
    calls = []

    def spy(name, original):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapped

    rref = linalg.rref
    for module in list(sys.modules.values()):
        if (module is not None and module.__name__.split(".")[0] == "wazz"
                and getattr(module, "rref", None) is rref):
            monkeypatch.setattr(module, "rref", spy("rref", rref))
    monkeypatch.setattr(linalg.Mat, "__init__", spy("Mat", linalg.Mat.__init__))
    monkeypatch.setattr(linalg.Mat, "_of_cols",
                        classmethod(spy("Mat", linalg.Mat._of_cols.__func__)))
    return calls


def test_conversions_build_no_mat_and_run_no_rref(elimination_calls):
    hreps, vreps = corpus("tovertices", 60), corpus("tofacets", 60)
    for h in hreps:
        dd_h_to_v(h)
        if h.dim:
            cone_rays([tuple(a) for a, _ in h.ineqs], h.dim)
    for v in vreps:
        dd_v_to_h(v)
    assert elimination_calls == []
    # the spies are in place: the ambient oracle builds a Mat for its kernel,
    # which the Fraction rref eliminates
    dd_oracle.dd_h_to_v(next(h for h in hreps if h.dim))
    assert "Mat" in elimination_calls
    linalg.rref(linalg.Mat([[1, 2]]))
    assert "rref" in elimination_calls
