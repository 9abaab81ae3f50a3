"""The text readers: the literal grammar, line splitting, the row reader
against its per-token oracle, pinned diagnostics for mutated files, and the
one-pass readers against the line-by-line readers they replaced."""

import collections
import hashlib
import math
import random
import re
import sys
from fractions import Fraction as F

import pytest

from wazz.automata import (LinearCoalgebra, SemiringTag, WeightedAutomaton, automaton_to_text,
                           parse_automaton)
from wazz import automata, formats, linalg, zigzag
from wazz.cli import MAX_DIGITS
from wazz.formats import LineReader, ParseError, block_lines, fmt_ratio, parse_rat
from wazz.linalg import Mat, scaled
from wazz.zigzag import (CUBIC, FREE_MODULE, GENERATED_MODULE, Morphism, ZigZag, ZigZagNode,
                         cubic_zigzag, five_node_zigzag, ghat_zigzag, parse_zigzag,
                         zigzag_to_text)

from genrandom import lifted_pair
from matvec_oracle import columns, fraction_rows, svec
from span_oracle import ring_span_zigzag

T = SemiringTag

# A token the literal grammar accepts: the ones a mutation replaces
_LITERAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")
_BAD_TOKENS = ("1/0", "1.5", "--1", "1/-2", "x1")
_KEYWORD_ROWS = ("output", "state", "out", "at", "left", "right")


def diagnostic_corpus():
    """name -> (text, parser): a q 2+1 pair, its span witness (the
    generated middle node and the projections the diagnostics were pinned
    on), a pca five-node witness and one whose nodes 1-3 have dimension 0,
    each under a comment line."""
    a1, x1, a2, x2 = lifted_pair(random.Random("parse-golden/q"), T.Q, 2, 1, ("a", "b"))
    p1, y1, p2, y2 = lifted_pair(random.Random("parse-golden/pca"), T.PCA, 2, 1, ("a", "b"))
    dead = WeightedAutomaton(tag=T.PCA, n=1, alphabet=("a",), out=svec([0]),
                             trans=(Mat([[1]]),))
    texts = {
        "q-left.wa": (automaton_to_text(a1, x1), parse_automaton),
        "q-right.wa": (automaton_to_text(a2, x2), parse_automaton),
        "q.zz": (zigzag_to_text(ring_span_zigzag(a1, x1, a2, x2)), parse_zigzag),
        "pca.zz": (zigzag_to_text(five_node_zigzag(p1, y1, p2, y2)), parse_zigzag),
        "zero-dim.zz": (zigzag_to_text(five_node_zigzag(dead, svec([1]), dead,
                                                        svec(["1/2"]))), parse_zigzag),
    }
    return {name: ("# " + name + "\n" + text, parse) for name, (text, parse) in texts.items()}


def _is_row(toks):
    return bool(toks) and all(_LITERAL.match(t) for t in toks)


def mutations(text):
    """family -> [(key, mutated text)]: each literal replaced in turn by an
    ASCII bad token, each bare row dropped, and each bare or keyword row
    given an extra entry."""
    lines = text.split("\n")
    out = {"literal": [], "drop-row": [], "extra-entry": []}
    for i, line in enumerate(lines):
        toks = line.split()
        if line.startswith("#"):
            continue
        for j, t in enumerate(toks):
            if _LITERAL.match(t):
                bad = _BAD_TOKENS[len(out["literal"]) % len(_BAD_TOKENS)]
                mutated = " ".join(toks[:j] + [bad] + toks[j + 1:])
                out["literal"].append(((i, j, bad),
                                       "\n".join(lines[:i] + [mutated] + lines[i + 1:])))
        if _is_row(toks):
            out["drop-row"].append(((i,), "\n".join(lines[:i] + lines[i + 1:])))
        if _is_row(toks) or (toks and toks[0] in _KEYWORD_ROWS and _is_row(toks[1:] or ["0"])):
            out["extra-entry"].append(((i,), "\n".join(lines[:i] + [line + " 0"]
                                                       + lines[i + 1:])))
    return out


def diagnostics(name, parse, cases):
    """(key, line, message) of each case's ParseError; any other outcome is
    recorded by its exception type, or as parsed."""
    found = []
    for key, text in cases:
        try:
            parse(text, name)
        except ParseError as exc:
            assert exc.source == name
            found.append((key, exc.line, exc.message))
        except Exception as exc:  # recorded, so that a change of kind shows
            found.append((key, type(exc).__name__, str(exc)))
        else:
            found.append((key, "parsed"))
    return found


def _digest(records):
    return hashlib.sha256(repr(records).encode("utf-8")).hexdigest()


class TestGoldenDiagnostics:
    # (number of mutated files, sha256 of the repr of their (key, line,
    # message) list), recorded before the row reader's literal table, the
    # column-major matrix build and the ASCII and "\n" rules
    GOLDEN = {
        ("pca.zz", "drop-row"):
            (58, "053ca503e3741683ba3818a9c535abf6d301b847ff38d964e6f0be5d4d224245"),
        ("pca.zz", "extra-entry"):
            (68, "75284f83ef0a671b1329c495060978c599b91d775d272ad54e55ad84c03791ae"),
        ("pca.zz", "literal"):
            (240, "a0968fb681efb302ef7df4aee065af58a6e265c20a705892e1336148d95cb50d"),
        ("q-left.wa", "drop-row"):
            (6, "591a621ecb30f31db1e5ec98b80094060c118536d2985cb3311a566f809daaf0"),
        ("q-left.wa", "extra-entry"):
            (8, "a20a5a4ed3ae6df4ebc069a04515163626b24bdfb01d7e564947543fa433c781"),
        ("q-left.wa", "literal"):
            (25, "9f7aa113b0712e896c86609c4103895ed9cf32c7d495db5ddf219fdaf22c6053"),
        ("q-right.wa", "drop-row"):
            (4, "3c2c707b2b26ba8389281f8df4a6efcf226b32b4fbec06d1c4a3365bcd535bc6"),
        ("q-right.wa", "extra-entry"):
            (6, "49bfaa8bdc323c9a15259874ef5dc3bfcd7788eeafa703e6cade0d99262be101"),
        ("q-right.wa", "literal"):
            (13, "fcd9d47d5d02eb866bdf451ee2e0038186e1b1052bcde0e972fddc2bdc2bfe18"),
        ("q.zz", "drop-row"):
            (38, "bfa5a363e64ff94aeb78e9cc77e2fc23c09f3fbfac990653ebc601cc7d089cdd"),
        ("q.zz", "extra-entry"):
            (44, "1c0b6511b59a7c119edc6adaffffad749b4c57db53f18682781a3f20a39efcc6"),
        ("q.zz", "literal"):
            (166, "15ca905bf89a47b27d741e2a767e29e71e29c84df78d3c9cb74ae5d537f398a1"),
        ("zero-dim.zz", "drop-row"):
            (4, "528a03a94a87e3a5c2639321c8571049c21898ea79523ea7029427492746a6fe"),
        ("zero-dim.zz", "extra-entry"):
            (14, "ae1d8ce5ab5c22e0cbd3881ba54e700a5e54dbc18d9e02a8c9557ef683d468e8"),
        ("zero-dim.zz", "literal"):
            (39, "7fe4b8c893612e24df028f6b8da0f3f38d4d814a01de825e904f21c03e75ea38"),
    }

    @pytest.mark.parametrize("name, family", sorted(GOLDEN))
    def test_every_diagnostic_is_kept(self, name, family):
        text, parse = diagnostic_corpus()[name]
        records = diagnostics(name, parse, mutations(text)[family])
        assert all(isinstance(r[1], int) for r in records), records
        assert (len(records), _digest(records)) == self.GOLDEN[name, family]

    def test_corpus_parses_unmutated(self):
        for name, (text, parse) in diagnostic_corpus().items():
            parse(text, name)


# The fixed words of each format: its directives, and for a witness the
# functors and node kinds of its headers and the words of a node line
_WA_KEYWORDS = ("semiring", "alphabet", "states", "output", "trans", "state")
_ZZ_KEYWORDS = ("zigzag", zigzag.CUBIC, zigzag.GHAT, "alphabet", "nodes", "node",
                *zigzag.KINDS, "dim", "generators", "out", "trans", "morphisms", "morphism",
                "relating", "at", "left", "right")
_UNKNOWN_WORD = "whatever"


def structural_mutations(text, keywords):
    """family -> [(key, mutated text)]: each line dropped, each line
    doubled, each keyword replaced by each other keyword of the format and
    by an unknown word, and the file cut after each line."""
    lines = text.split("\n")
    out = {"drop-line": [], "duplicate-line": [], "keyword": [], "cut": []}
    for i, line in enumerate(lines):
        if not line.split() or line.startswith("#"):
            continue
        out["drop-line"].append(((i,), "\n".join(lines[:i] + lines[i + 1:])))
        out["duplicate-line"].append(((i,), "\n".join(lines[:i + 1] + lines[i:])))
        out["cut"].append(((i,), "\n".join(lines[:i + 1])))
        toks = line.split()
        for j, t in enumerate(toks):
            if t in keywords:
                for word in [w for w in keywords if w != t] + [_UNKNOWN_WORD]:
                    mutated = " ".join(toks[:j] + [word] + toks[j + 1:])
                    out["keyword"].append(((i, j, word),
                                           "\n".join(lines[:i] + [mutated] + lines[i + 1:])))
    return out


def corpus_structural_mutations(name, text):
    return structural_mutations(text, _ZZ_KEYWORDS if name.endswith(".zz") else _WA_KEYWORDS)


class TestStructuralDiagnostics:
    """Files broken in their structure rather than in a literal: every
    reader's outcome held to the line-by-line oracle, and the (key, line,
    message) records of each family pinned."""

    # (number of mutated files, sha256 of the repr of their records)
    GOLDEN = {
        ("pca.zz", "cut"):
            (92, "88fca7c73cbc56437a310057611f45a980ba2d9bec4bbec21dc11076390c776e"),
        ("pca.zz", "drop-line"):
            (92, "534429860fce345425e379cedf01a9661148beac95b1145ce0252e10774b7c15"),
        ("pca.zz", "duplicate-line"):
            (92, "057a5c1dda07d96e39fb3dd1f2f7b3ef9901185c13d42b33e55db43d737ba83b"),
        ("pca.zz", "keyword"):
            (1000, "83bcd220b74ede9214bd7754d64fa6ed43c9d28dc1612349afa377df89bd3c2c"),
        ("q-left.wa", "cut"):
            (13, "5bd0a3fb615c0645b2737232adafee75c6c93eef2e89a76a3c55035bea95f44e"),
        ("q-left.wa", "drop-line"):
            (13, "15dfe182121656401339f83fce07444d57e39803df5bd9a60af372b1f8309fbe"),
        ("q-left.wa", "duplicate-line"):
            (13, "2f6fac11411c87d2c79d27a4544fbd9f6d9ad8d9b316b1ffdb74bd0fd2aaa7d0"),
        ("q-left.wa", "keyword"):
            (42, "498889fab4c2e624fdedac30aa8dac781fae137e48b4fa9e806e0370e4fd3e50"),
        ("q-right.wa", "cut"):
            (11, "0dc0dfd4fe28987575f2436b14777d8afd80251b9755c0b561efce155ea8bf21"),
        ("q-right.wa", "drop-line"):
            (11, "7c04f6d45961f777a7516dbedeb0163dfc81e3b8a417fbccea983e6b1cc2d713"),
        ("q-right.wa", "duplicate-line"):
            (11, "05e8598f7073037e00453077a036ab7cd5286e81eba173695f89ceb75174d746"),
        ("q-right.wa", "keyword"):
            (42, "85580c590bf0d2393bf3b60fd6c8d7c3c2316cc7906411630c2d3a9a833a31a7"),
        ("q.zz", "cut"):
            (60, "3dff9bfb3874f57f9dadf57d46400a811ec780c5c5a0b4194c1aa70b802bd9d2"),
        ("q.zz", "drop-line"):
            (60, "77754e90ad06557de60960d5547cf21bc23697249ac21334a559d408bff846fc"),
        ("q.zz", "duplicate-line"):
            (60, "835c1c2251b121a371a5a2444ecf6e4f001bfca4c9680c6269b4cf1e9699ebdc"),
        ("q.zz", "keyword"):
            (640, "b9ac111ad3acf151b620a074cd340ea3c2a00dbc18533cce3c5bd01ddd9e7657"),
        ("zero-dim.zz", "cut"):
            (33, "4c3f4bb8001aeab7432603bd2ec4201a631bd8e4a88e6ac5bffcfe729df64640"),
        ("zero-dim.zz", "drop-line"):
            (33, "e5ee090d6ea39df15571d7431f6f7da35b617faec81b7f02db54391a2dcefe5e"),
        ("zero-dim.zz", "duplicate-line"):
            (33, "f792d6fe44875bc3c8aacc7c1ddd62ceb4865cb38eb6e82ff1f2b25140782e88"),
        ("zero-dim.zz", "keyword"):
            (900, "115fb7cd977937943f9fa6414bf8ba53c5a0d43e46772de3b245a111671c54d4"),
    }

    @pytest.mark.parametrize("name, family", sorted(GOLDEN))
    def test_every_diagnostic_is_kept(self, name, family):
        text, parse = diagnostic_corpus()[name]
        records = diagnostics(name, parse, corpus_structural_mutations(name, text)[family])
        assert (len(records), _digest(records)) == self.GOLDEN[name, family]

    def test_readers_match_oracle(self):
        for name, (text, parse) in diagnostic_corpus().items():
            oracle = TestReadersMatchOracle.oracle(parse)
            for family, cases in corpus_structural_mutations(name, text).items():
                assert cases, (name, family)
                for key, mutated in cases:
                    got = outcome(parse, mutated, name)
                    assert got == outcome(oracle, mutated, name), (name, family, key)
                    assert got[0] in ("parsed", "ParseError"), (name, family, key, got)


def tag_mutations(text):
    """family -> [(key, mutated text)] of an automaton file: each weight
    rule broken where the file states it.  Each block entry made -1 (and
    1/2 for an integral tag), each block line made all 1 (a column sum
    above 1 for unit), the output made all 1 (above 1 with the mass for
    pca), each state entry made -1, 2 and 1/2, and the state made all 1."""
    lines = text.split("\n")
    integral = re.search(r"^semiring (nat|int)$", text, re.M) is not None
    out = {"block-entry": [], "block-line": [], "output": [], "state-entry": [],
           "state-sum": []}

    def put(family, key, i, toks):
        out[family].append((key, "\n".join(lines[:i] + [" ".join(toks)] + lines[i + 1:])))

    in_block = False
    for i, line in enumerate(lines):
        toks = line.split()
        if not toks or toks[0].startswith("#"):
            continue
        head = toks[0]
        if head in ("output", "state"):
            in_block = False
            put("output" if head == "output" else "state-sum", (i,), i,
                [head] + ["1"] * (len(toks) - 1))
            for j in range(1, len(toks) if head == "state" else 1):
                for bad in ("-1", "2", "1/2"):
                    put("state-entry", (i, j, bad), i, toks[:j] + [bad] + toks[j + 1:])
        elif head == "trans":
            in_block = True
        elif in_block:
            put("block-line", (i,), i, ["1"] * len(toks))
            for j in range(len(toks)):
                for bad in ("-1", "1/2") if integral else ("-1",):
                    put("block-entry", (i, j, bad), i, toks[:j] + [bad] + toks[j + 1:])
    return out


def outcome(parse, text, name):
    """What a reader makes of a text: ("parsed", the object), or the
    exception's type and text."""
    try:
        return "parsed", parse(text, name)
    except Exception as exc:
        return type(exc).__name__, str(exc)


class TestReadersMatchOracle:
    """The one-pass readers against the line-by-line readers they replaced
    (`parse_oracle`): equal objects, or the same `ParseError` text."""

    @staticmethod
    def oracle(parse):
        import parse_oracle
        return (parse_oracle.parse_zigzag if parse is parse_zigzag
                else parse_oracle.parse_automaton)

    def test_mutated_corpus(self):
        for name, (text, parse) in diagnostic_corpus().items():
            for family, cases in mutations(text).items():
                assert cases, (name, family)
                for key, mutated in cases:
                    got = outcome(parse, mutated, name)
                    assert got == outcome(self.oracle(parse), mutated, name), (name, family, key)
                    assert got[0] == "ParseError", (name, family, key)

    def test_tag_violations(self):
        """Every rule of `check_weights` and of the state line, broken in
        the files of lifted pairs of nat, int, qplus, unit and pca, fails
        at the same line with the same text."""
        rng = random.Random("formats/tag-violations")
        messages = set()
        for tag in (T.NAT, T.INT, T.QPLUS, T.UNIT, T.PCA):
            a1, x1, a2, x2 = lifted_pair(rng, tag, 2, 1, ("a", "b"))
            for name, text in (("left.wa", automaton_to_text(a1, x1)),
                               ("right.wa", "# a comment\n" + automaton_to_text(a2, x2))):
                for family, cases in tag_mutations(text).items():
                    for key, mutated in cases:
                        got = outcome(parse_automaton, mutated, name)
                        want = outcome(self.oracle(parse_automaton), mutated, name)
                        assert got == want, (tag, name, family, key)
                        if got[0] == "ParseError":
                            messages.add(got[1].split(": ", 1)[1])
        for rule in ("entry -1 violates tag nat", "entry 1/2 violates tag nat",
                     "entry 1/2 violates tag int", "entry -1 violates tag qplus",
                     "column sums must stay within 1 for unit tag",
                     "output plus transition mass exceeds 1",
                     "state entry -1 violates tag nat", "state entry 1/2 violates tag int",
                     "state entry 2 violates tag unit", "state entry 2 violates tag pca",
                     "state entries sum to 2, above 1 for tag unit",
                     "state entries sum to 3, above 1 for tag pca"):
            assert any(m.endswith(rule) for m in messages), rule

    def test_lifted_pairs_and_witnesses_of_every_tag(self):
        rng = random.Random("formats/every-tag")
        for tag in T:
            a1, x1, a2, x2 = lifted_pair(rng, tag, 2, 1, ("a", "b"))
            build = ghat_zigzag if tag is T.PCA else cubic_zigzag
            for parse, text in ((parse_automaton, automaton_to_text(a1, x1)),
                                (parse_automaton, automaton_to_text(a2, x2)),
                                (parse_zigzag, zigzag_to_text(build(a1, x1, a2, x2)))):
                assert parse(text, "f") == self.oracle(parse)(text, "f")
                for family, cases in mutations(text).items():
                    for key, mutated in cases:
                        assert (outcome(parse, mutated, "f")
                                == outcome(self.oracle(parse), mutated, "f")), (tag, family, key)

    def test_each_literal_parsed_once_per_file(self, monkeypatch):
        counts = []
        parse_ratio = formats.parse_ratio

        def spy(token):
            counts[-1][token] += 1
            return parse_ratio(token)

        monkeypatch.setattr(formats, "parse_ratio", spy)
        rng = random.Random("formats/parse-once")
        files = list(diagnostic_corpus().values())
        for tag in (T.Q, T.PCA):
            a1, x1, a2, x2 = lifted_pair(rng, tag, 3, 2, ("a", "b"))
            build = ghat_zigzag if tag is T.PCA else cubic_zigzag
            files += [(automaton_to_text(a1, x1), parse_automaton),
                      (zigzag_to_text(build(a1, x1, a2, x2)), parse_zigzag)]
        for text, parse in files:
            counts.append(collections.Counter())
            parse(text)
            # each literal parsed once: its repeats are table hits
            assert counts[-1] and max(counts[-1].values()) == 1
            assert sum(counts[-1].values()) < sum(
                1 for line in text.split("\n") for t in line.split() if _LITERAL.match(t))


def rand_literal(rng):
    """A valid literal: a sign, leading zeros, a denominator not in lowest
    terms, a zero numerator over any denominator, "-0"."""
    sign = rng.choice(("", "", "+", "-"))
    num = "0" * rng.randint(0, 2) + str(rng.randint(0, 12))
    roll = rng.random()
    if roll < 0.4:
        return sign + num
    den = rng.randint(1, 12)
    if roll < 0.7:  # n/d not in lowest terms
        num, den = str(int(num) * den), den * rng.randint(1, 3)
    return f"{sign}{num}/{'0' * rng.randint(0, 1)}{den}"


BAD_LITERALS = ("1/0", "-3/00", "1.5", "--1", "+-1", "1/-2", "1/+2", "/2", "1/", "1//2",
                "x", "0x1", "1e3", "1_0", "٣", "１２", "3/٤")


def rand_rows(rng, count):
    """(tokens, expected count) rows: most valid, some with bad tokens
    somewhere, some of the wrong length."""
    rows = []
    for _ in range(count):
        width = rng.randint(0, 6)
        toks = [rand_literal(rng) for _ in range(width)]
        roll = rng.random()
        if roll < 0.2 and toks:  # one or two bad tokens: the first is named
            for _ in range(rng.randint(1, 2)):
                toks[rng.randrange(width)] = rng.choice(BAD_LITERALS)
        expect = width
        if roll > 0.9:
            expect = max(0, width + rng.choice((-1, 1)))
        rows.append((toks, expect))
    return rows


class TestRowReaderMatchesOracle:
    def test_rows_of_one_file(self):
        """A reader reads every row of a file, failed rows included, and
        gives the scaled vector of the oracle's tuple or its line and message."""
        import parse_oracle
        rng = random.Random("formats/rows")
        outcomes = set()
        for _ in range(60):
            rows = [(toks, expect) for toks, expect in rand_rows(rng, 40) if toks]
            lines, where = [], []
            for toks, _ in rows:
                if rng.random() < 0.2:
                    lines.append(rng.choice(("", "# a comment", "   ")))
                lines.append(" ".join(toks) + rng.choice(("", "  # trailing comment")))
                where.append(len(lines))
            reader = LineReader("\n".join(lines), "rows.txt")
            assert reader.lines == list(zip(where, (toks for toks, _ in rows)))
            for (toks, expect), line in zip(rows, where):
                try:
                    want = scaled(parse_oracle.parse_rats("rows.txt", line, toks, expect))
                except ParseError as exc:
                    want = (exc.source, exc.line, exc.message)
                try:
                    got = reader.row(line, toks, expect, start=0)
                    assert type(got[1]) is tuple and all(type(a) is int for a in got[1])
                except ParseError as exc:
                    got = (exc.source, exc.line, exc.message)
                assert got == want
                outcomes.add(type(want[0]))
        assert outcomes == {int, str}

    def test_parse_rats_on_token_lists(self):
        import parse_oracle
        rng = random.Random("formats/parse-rats")
        reader = LineReader("", "tokens.txt")
        for toks, expect in rand_rows(rng, 500):
            count = rng.choice((None, expect))
            try:
                want = scaled(parse_oracle.parse_rats("tokens.txt", 0, toks, count))
            except ParseError as exc:
                want = str(exc)
            try:
                got = reader.row(0, toks, len(toks) if count is None else count, start=0)
            except ParseError as exc:
                got = str(exc)
            assert got == want


def scaled_of_rows(rows, ncols):
    """The scaled form of `Fraction` rows, computed with no `Mat`: den the
    lcm of the denominators, coprime to the integers as every Fraction is in
    lowest terms, and per row the nonzero columns with den * entry there."""
    den = math.lcm(*(a.denominator for r in rows for a in r))
    ints = [[int(a * den) for a in r] for r in rows]
    assert all(len(r) == ncols for r in ints)
    return den, tuple((tuple(j for j, a in enumerate(r) if a), tuple(filter(None, r)))
                      for r in ints)


def matrices(parsed):
    """Every matrix of a parsed witness or automaton."""
    if isinstance(parsed, tuple):  # (automaton, state)
        return list(parsed[0].trans)
    return [m for n in parsed.nodes for m in n.coalgebra.trans] + [
        mor.matrix for mor in parsed.morphisms]


def zero_dim_middle():
    """A q witness whose middle node has dimension 0, so the morphism into
    the right endpoint has a row and no column."""
    def node(kind, dim):
        coalg = LinearCoalgebra(n=dim, alphabet=("a",), out=svec([1] * dim),
                                trans=(Mat([[F(1, 3)] * dim] * dim, ncols=dim),))
        return ZigZagNode(kind=kind, generators=(), coalgebra=coalg)

    return ZigZag(functor=CUBIC, tag=T.Q, alphabet=("a",),
                  nodes=(node(FREE_MODULE, 0), node(GENERATED_MODULE, 0), node(FREE_MODULE, 1)),
                  morphisms=(Morphism(1, 0, Mat((), ncols=0)), Morphism(1, 2, Mat([()], ncols=0))),
                  relating=((1, svec(())),), endpoints=(svec(()), svec([1])))


class TestScaledFormAtParse:
    """The readers build each matrix from the literal table's integers: the
    entries the text stands for, checked against Python's own `Fraction`
    parse of a block or the matrix a file was printed from, in the canonical
    scaled form computed from those Fractions with no `Mat`."""

    @staticmethod
    def rand_block(rng, nrows, ncols):
        """Column lines of literals: zero rows, all-integer blocks, literals
        not in lowest terms, and denominators up to 10**12."""
        zero_rows = {i for i in range(nrows) if rng.random() < 0.25}
        integral, huge = rng.random() < 0.3, rng.random() < 0.3

        def literal(i):
            if i in zero_rows:
                return rng.choice(("0", "-0", "00", "0/7"))
            if integral:
                return str(rng.randint(-9, 9))
            if huge:
                return f"{rng.randint(-10**12, 10**12)}/{rng.randint(1, 10**12)}"
            return rand_literal(rng)

        return [" ".join(literal(i) for i in range(nrows)) for _ in range(ncols)]

    def test_random_blocks(self):
        rng = random.Random("formats/scaled-blocks")
        shapes, blocks, lines = [], [], []
        for _ in range(300):
            nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
            block = self.rand_block(rng, nrows, ncols) if nrows else []
            shapes.append((nrows, ncols))
            blocks.append(block)
            lines += block + ["# between blocks"]
        reader = LineReader("\n".join(lines), "blocks.txt")
        dens, k = set(), 0
        for (nrows, ncols), block in zip(shapes, blocks):
            m = reader.block(k, nrows, ncols)
            k += len(block)
            # the entries by Python's own parse of the text: line j is column j
            cols = [[F(t) for t in line.split()] for line in block]
            want = tuple(tuple(c[i] for c in cols) for i in range(nrows))
            assert (m.nrows, m.ncols) == (nrows, ncols)
            assert fraction_rows(m) == want
            assert m.scaled() == scaled_of_rows(want, ncols)
            dens.add(min(m.den, 10**6))
        assert k == len(reader.lines)
        assert 1 in dens and 10**6 in dens and len(dens) > 10

    def test_parsed_files(self):
        rng = random.Random("formats/scaled-files")
        dead = WeightedAutomaton(tag=T.PCA, n=1, alphabet=("a",), out=svec([0]),
                                 trans=(Mat([[1]]),))
        # each file beside the matrices it was printed from
        written = [ghat_zigzag(dead, svec([1]), dead, svec(["1/2"])), zero_dim_middle()]
        files = [(zigzag_to_text(z), matrices(z)) for z in written]
        for tag in T:
            for k, extra in ((1, 0), (2, 1), (3, 2)):
                a1, x1, a2, x2 = lifted_pair(rng, tag, k, extra, ("a", "b"))
                build = ghat_zigzag if tag is T.PCA else cubic_zigzag
                z = build(a1, x1, a2, x2)
                files += [(automaton_to_text(a1, x1), list(a1.trans)),
                          (automaton_to_text(a2, x2), list(a2.trans)),
                          (zigzag_to_text(z), matrices(z))]
        shapes = set()
        for text, printed in files:
            parse = parse_zigzag if text.startswith("zigzag") else parse_automaton
            parsed = matrices(parse(text))
            assert parsed == printed
            for m, p in zip(parsed, printed):
                assert fraction_rows(m) == fraction_rows(p)
                assert m.scaled() == scaled_of_rows(fraction_rows(p), p.ncols)
                shapes.add((m.nrows > 0, m.ncols > 0))
        # dim-0 nodes and zero-column morphisms
        assert shapes == {(True, True), (False, False), (False, True), (True, False)}


class TestMatricesStayInteger:
    """The readers read a matrix block and a vector row into integers and the
    writers print them from those: no `Fraction` is built for an entry
    either way."""

    @staticmethod
    def corpus():
        rng = random.Random("formats/integer-blocks")
        texts = []
        for tag in (T.Q, T.QPLUS, T.UNIT, T.PCA):
            a1, x1, a2, x2 = lifted_pair(rng, tag, 3, 1, ("a", "b"))
            build = ghat_zigzag if tag is T.PCA else cubic_zigzag
            texts += [automaton_to_text(a1, x1), automaton_to_text(a2, x2),
                      zigzag_to_text(build(a1, x1, a2, x2))]
        return texts

    def test_readers_build_no_fraction_for_a_matrix_entry(self, monkeypatch):
        """Every `Fraction` built from integers or text while a file is read
        is recorded with the reader method it is built in: there is none, in
        `row`, in `block` or after the reader, though the files have vector
        rows and blocks with fractional entries."""
        built, blocks_read, inside = [], [], [None]
        row, block = LineReader.row, LineReader.block

        def spy(method, name):
            def wrapped(self, *args, **kwargs):
                inside[0] = name
                try:
                    return method(self, *args, **kwargs)
                finally:
                    inside[0] = None
                    if name == "block":
                        blocks_read.append(args)
            return wrapped

        class Spy(F):
            def __new__(cls, *args, **kwargs):
                if not any(isinstance(a, F) for a in args):
                    built.append(inside[0])
                return F(*args, **kwargs)

        texts = self.corpus()
        monkeypatch.setattr(LineReader, "row", spy(row, "row"))
        monkeypatch.setattr(LineReader, "block", spy(block, "block"))
        for module in (formats, automata):
            monkeypatch.setattr(module, "Fraction", Spy)
        assert not hasattr(zigzag, "Fraction") and not hasattr(linalg, "Fraction")
        for text in texts:
            built.clear()
            blocks_read.clear()
            parse = parse_zigzag if text.startswith("zigzag") else parse_automaton
            parse(text)
            assert blocks_read and any(nrows and ncols for _, nrows, ncols in blocks_read)
            assert "/" in text and built == []
        # the spy is in place: a literal parsed to a Fraction is recorded
        formats.parse_rat("1/7")
        assert built == [None]

    def test_entry_printer_matches_fraction_text(self):
        rng = random.Random("formats/entry-printer")
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(MAX_DIGITS)
        try:
            cases = [(0, 1), (0, 7), (5, 1), (-5, 1), (6, 4), (-6, 4), (7, 7), (-14, 7)]
            for _ in range(2000):
                num = rng.randint(-10**rng.randint(0, 30), 10**rng.randint(0, 30))
                den = rng.choice((1, rng.randint(1, 12), rng.randint(1, 10**20)))
                cases.append((num * rng.choice((1, den)), den))
            for _ in range(10):
                big = rng.randint(10**4999, 10**5000 - 1) * rng.choice((1, -1))
                cases += [(big, 1), (big, rng.randint(2, 10**6)), (big * 6, 4)]
            for num, den in cases:
                assert fmt_ratio(num, den) == str(F(num, den))
        finally:
            sys.set_int_max_str_digits(before)

    def test_block_printer_matches_fraction_columns(self):
        for text in self.corpus():
            parsed = (parse_zigzag if text.startswith("zigzag") else parse_automaton)(text)
            for m in matrices(parsed):
                assert block_lines(m) == [" ".join(map(str, col)) for col in columns(m)]


SAMPLE_WA = """\
semiring q
alphabet a
states 2
output 1/2 -1
trans a
0 1/2
1/2 0
state 1 0
"""


def _with_line(text, lineno, line):
    lines = text.split("\n")
    lines[lineno - 1] = line
    return "\n".join(lines)


class TestAsciiNumerals:
    @pytest.mark.parametrize("token", ["٣", "１２", "3/٤", "1_0",
                                       "١/2", "+٣"])
    def test_parse_rat_rejects(self, token):
        with pytest.raises(ValueError):
            parse_rat(token)

    @pytest.mark.parametrize("token, value", [("007", 7), ("+3", 3), ("-0", 0),
                                              ("-04/06", F(-2, 3)), ("0/5", 0)])
    def test_parse_rat_accepts(self, token, value):
        assert parse_rat(token) == value

    @pytest.mark.parametrize("lineno, line, message", [
        (4, "output ٣ 0", "not a rational literal: '٣'"),
        (4, "output １２ 0", "not a rational literal: '１２'"),
        (6, "0 3/٤", "not a rational literal: '3/٤'"),
        (3, "states ٢", "expected an integer, got '٢'"),
        (3, "states 1_0", "expected an integer, got '1_0'"),
        (3, "states ２", "expected an integer, got '２'"),
    ])
    def test_readers_name_file_and_line(self, lineno, line, message):
        with pytest.raises(ParseError) as err:
            parse_automaton(_with_line(SAMPLE_WA, lineno, line), "num.wa")
        assert str(err.value) == f"num.wa:{lineno}: {message}"

    def test_witness_counts(self):
        text = sample_witness()
        for old, new in (("nodes 3", "nodes ٣"), ("morphisms 2", "morphisms 2_0")):
            lineno = text.split("\n").index(old) + 1
            with pytest.raises(ParseError) as err:
                parse_zigzag(text.replace(old, new), "w.zz")
            assert str(err.value) == f"w.zz:{lineno}: expected an integer, got {new.split()[1]!r}"

    @pytest.mark.parametrize("token, value", [("+2", 2), ("002", 2), ("-1", -1)])
    def test_parse_int_sign_rule(self, token, value):
        assert LineReader("").integer(token, 1) == value


def sample_witness():
    """A cubic q witness of one letter: nodes 0 (dim 2), 1 and 2 (dim 1),
    morphisms 0 -> 1 and 2 -> 1, and relating elements at 0 and 2."""
    return zigzag_to_text(cubic_zigzag(*lifted_pair(random.Random("formats/ascii"),
                                                    T.Q, 1, 1, ("a",))))


class TestDiagnosticsOfEachRule:
    """One hand-made file per rule of the readers that no mutation family
    breaks: the exact `file:line: message`, and the oracle's text."""

    @pytest.mark.parametrize("old, new, message", [
        ("semiring q", "semiring q q", "expected exactly one semiring tag"),
        ("alphabet a", "alphabet", "alphabet must not be empty"),
        ("states 2", "states 2 2", "expected exactly one state count"),
        ("states 2", "states 0", "expected an integer >= 1, got 0"),
        ("trans a", "trans b", "unknown symbol 'b'"),
        ("state 1 0", "trans a\n0 1\n1 0", "duplicate transition block for 'a'"),
    ])
    def test_automaton(self, old, new, message):
        import parse_oracle
        lines = SAMPLE_WA.split("\n")
        lineno = lines.index(old) + 1
        text = _with_line(SAMPLE_WA, lineno, new)
        got = outcome(parse_automaton, text, "r.wa")
        assert got == ("ParseError", f"r.wa:{lineno}: {message}")
        assert got == outcome(parse_oracle.parse_automaton, text, "r.wa")

    @pytest.mark.parametrize("old, new, message", [
        ("zigzag cubic q", "zigzag cubic", "expected: zigzag <functor> <tag>"),
        ("zigzag cubic q", "zigzag cubic z", "unknown semiring 'z'"),
        ("alphabet a", "alphabet a a", "alphabet must be nonempty and distinct"),
        ("alphabet a", "alphabet", "alphabet must be nonempty and distinct"),
        ("nodes 3", "nodes 0", "expected an integer >= 1, got 0"),
        ("trans a", "trans b", "expected transition block for 'a'"),
        ("morphism 0 1", "morphism 0", "expected: morphism <from> <to>"),
        ("at 0 -1 0", "at", "expected: at <node> <element>"),
        ("at 0 -1 0", "at 3 -1 0", "relating node out of range"),
    ])
    def test_witness(self, old, new, message):
        import parse_oracle
        sample = sample_witness()
        lineno = sample.split("\n").index(old) + 1
        text = _with_line(sample, lineno, new)
        got = outcome(parse_zigzag, text, "r.zz")
        assert got == ("ParseError", f"r.zz:{lineno}: {message}")
        assert got == outcome(parse_oracle.parse_zigzag, text, "r.zz")


class TestLineEnds:
    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c",
                                     "\x1c", "\x1d", "\x1e", "\r"])
    def test_separator_inside_a_comment(self, sep):
        text = SAMPLE_WA.replace("semiring q", f"semiring q # note{sep}more")
        assert parse_automaton(text, "f.wa") == parse_automaton(SAMPLE_WA, "f.wa")
        # the line count is that of the line feeds
        bad = text.replace("states 2", "states x")
        with pytest.raises(ParseError) as err:
            parse_automaton(bad, "f.wa")
        assert str(err.value) == "f.wa:3: expected an integer, got 'x'"

    def test_crlf_file(self):
        crlf = SAMPLE_WA.replace("\n", "\r\n")
        assert parse_automaton(crlf, "f.wa") == parse_automaton(SAMPLE_WA, "f.wa")
        with pytest.raises(ParseError) as err:
            parse_automaton(crlf.replace("0 1/2", "0 1/0"), "f.wa")
        assert str(err.value) == "f.wa:6: zero denominator: '1/0'"

    def test_crlf_witness(self):
        z = cubic_zigzag(*lifted_pair(random.Random("formats/crlf"), T.Q, 2, 1, ("a",)))
        text = zigzag_to_text(z)
        assert parse_zigzag(text.replace("\n", "\r\n")) == parse_zigzag(text) == z


class TestTokenSeparators:
    @pytest.mark.parametrize("lineno, line, char", [
        (4, "output 1\u00a00", "\u00a0"),     # no-break space: was two entries
        (2, "alphabet a\u2003b", "\u2003"),   # em space: was two letters
        (4, "output 1/2\x0b-1", "\x0b"),
        (6, "0\u30001/2", "\u3000"),
        (2, "\u2028alphabet a", "\u2028"),   # at the ends too
        (3, "states 2\x85", "\x85"),
        (4, "output 1/2\r-1", "\r"),          # a CR only ends a CRLF line
    ])
    def test_other_whitespace_names_its_line(self, lineno, line, char):
        with pytest.raises(ParseError) as err:
            parse_automaton(_with_line(SAMPLE_WA, lineno, line), "ws.wa")
        assert str(err.value) == f"ws.wa:{lineno}: whitespace other than space or tab: {char!r}"

    def test_spaces_and_tabs_separate_tokens(self):
        text = SAMPLE_WA.replace("output 1/2 -1", "\toutput \t1/2  -1\t ")
        assert parse_automaton(text, "f.wa") == parse_automaton(SAMPLE_WA, "f.wa")
        assert LineReader("a\tb  c \t d\n").lines == [(1, ["a", "b", "c", "d"])]

    def test_unprintable_non_space_stays_in_its_token(self):
        # a zero-width space is no whitespace: the line reads as before
        assert LineReader("a\u200bb c\n").lines == [(1, ["a\u200bb", "c"])]
