"""Seeded input pairs for the wazz benchmark, with answers known without wazz.

An automaton here is the benchmark's own record: a tag, an alphabet, an
output vector and, per letter, the image of every basis state (the rows of a
`.wa` transition block).  wazz only ever sees the text written from it.

Every pair's answer is known independently of wazz:
  * lifted pairs are equivalent by construction (a k-state automaton and its
    lift along the surjection [I | R], as in the test suite's generator);
  * planted chains differ by construction, and their shortest separating
    word is known (a^(L-1) for an L-state chain);
  * perturbed pairs are lifted pairs with one weight set to zero, kept only
    when `first_separating` below finds a word that separates them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F

CUBIC_TAGS = ("nat", "int", "qplus", "q", "rplus", "real", "unit")


@dataclass
class Automaton:
    tag: str
    alphabet: tuple
    out: list
    images: dict  # letter -> list of n image vectors, one per basis state

    @property
    def n(self):
        return len(self.out)


@dataclass
class Pair:
    pid: str
    left: Automaton
    x_left: list
    right: Automaton
    x_right: list
    equivalent: bool
    word_len: int | None  # shortest separating word length when not equivalent


# ---------------------------------------------------------------------------
# the reference evaluator


def step(aut, x, letter):
    y = [F(0)] * aut.n
    for j, xj in enumerate(x):
        if xj:
            for i, c in enumerate(aut.images[letter][j]):
                if c:
                    y[i] += xj * c
    return y


def weight(aut, x, word):
    for a in word:
        x = step(aut, x, a)
    return sum(o * v for o, v in zip(aut.out, x))


def first_separating(a1, x1, a2, x2, maxlen):
    """Shortlex-least word up to maxlen whose weights differ, else None."""
    frontier = [((), x1, x2)]
    for length in range(maxlen + 1):
        nxt = []
        for word, v1, v2 in frontier:
            if weight(a1, v1, ()) != weight(a2, v2, ()):
                return word
            if length < maxlen:
                for a in a1.alphabet:
                    nxt.append((word + (a,), step(a1, v1, a), step(a2, v2, a)))
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# text


def _fmt(q):
    return str(F(q))


def to_text(aut, x):
    lines = [f"semiring {aut.tag}", "alphabet " + " ".join(aut.alphabet),
             f"states {aut.n}", "output " + " ".join(map(_fmt, aut.out))]
    for a in aut.alphabet:
        lines.append(f"trans {a}")
        lines.extend(" ".join(map(_fmt, img)) for img in aut.images[a])
    lines.append("state " + " ".join(map(_fmt, x)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# random automata (the test suite's distributions)


def rand_scalar(rng, tag):
    if tag == "nat":
        return F(rng.choice([0, 0, 0, 1, 1]))
    if tag == "int":
        return F(rng.randint(-2, 2))
    if tag in ("qplus", "rplus"):
        return F(rng.choice([0, 0, 0, 1, 1, 2]), rng.choice([1, 2]))
    if tag in ("q", "real"):
        return F(rng.randint(-3, 3), rng.randint(1, 3))
    raise ValueError(tag)


def _subconvex_cols(rng, n, count):
    cols = []
    for _ in range(count):
        raw = [rng.randint(0, 2) for _ in range(n)]
        den = max(1, sum(raw) + rng.randint(0, 2))
        cols.append([F(r, den) for r in raw])
    return cols


def rand_automaton(rng, tag, n, alphabet):
    images = {a: [] for a in alphabet}
    out = []
    if tag == "unit":
        for _ in range(n):
            out.append(F(rng.randint(0, 3), 3))
            for a, col in zip(alphabet, _subconvex_cols(rng, n, len(alphabet))):
                images[a].append(col)
    elif tag == "pca":
        for _ in range(n):
            raw = [rng.randint(0, 2) for _ in range(1 + len(alphabet) * n)]
            den = max(1, sum(raw) + rng.randint(0, 2))
            out.append(F(raw[0], den))
            for t, a in enumerate(alphabet):
                images[a].append([F(r, den) for r in raw[1 + t * n:1 + (t + 1) * n]])
    else:
        out = [rand_scalar(rng, tag) for _ in range(n)]
        for a in alphabet:
            images[a] = [[rand_scalar(rng, tag) for _ in range(n)] for _ in range(n)]
    return Automaton(tag, tuple(alphabet), out, images)


def rand_config(rng, tag, n):
    if tag in ("unit", "pca"):
        raw = [rng.randint(0, 2) for _ in range(n)]
        den = max(1, sum(raw) + rng.randint(0, 1))
        return [F(r, den) for r in raw]
    return [rand_scalar(rng, tag) for _ in range(n)]


def lifted_pair(rng, tag, k, extra, alphabet):
    """A k-state automaton C, its (k+extra)-state lift B along [I | R], and
    configurations related by the lift, so that their traces agree."""
    small = rand_automaton(rng, tag, k, alphabet)
    if tag in ("unit", "pca"):
        r_cols = _subconvex_cols(rng, k, extra)
    else:
        r_cols = [[rand_scalar(rng, tag) for _ in range(k)] for _ in range(extra)]
    n = k + extra
    zero_tail = [F(0)] * extra
    images = {}
    for a in alphabet:
        rows = [img + zero_tail for img in small.images[a]]
        rows += [step(small, r, a) + zero_tail for r in r_cols]
        images[a] = rows
    out = small.out + [sum(o * r for o, r in zip(small.out, col)) for col in r_cols]
    big = Automaton(tag, tuple(alphabet), out, images)
    x_big = rand_config(rng, tag, n)
    x_small = [x_big[i] + sum(x_big[k + t] * r_cols[t][i] for t in range(extra))
               for i in range(k)]
    return big, x_big, small, x_small


def _zero_one_weight(rng, aut):
    """A copy of aut with one nonzero weight set to zero (valid for every tag)."""
    slots = [("out", None, i) for i, o in enumerate(aut.out) if o]
    for a in aut.alphabet:
        for j, img in enumerate(aut.images[a]):
            slots.extend((a, j, i) for i, c in enumerate(img) if c)
    if not slots:
        return None
    a, j, i = rng.choice(slots)
    out = list(aut.out)
    images = {b: [list(img) for img in aut.images[b]] for b in aut.alphabet}
    if a == "out":
        out[i] = F(0)
    else:
        images[a][j][i] = F(0)
    return Automaton(aut.tag, aut.alphabet, out, images)


def _oriented(rng, pid, big, x_big, small, x_small, equivalent, word_len):
    if rng.random() < 0.5:
        return Pair(pid, big, x_big, small, x_small, equivalent, word_len)
    return Pair(pid, small, x_small, big, x_big, equivalent, word_len)


def lifted(rng, pid, tag, k, extra, alphabet):
    big, x_big, small, x_small = lifted_pair(rng, tag, k, extra, alphabet)
    return _oriented(rng, pid, big, x_big, small, x_small, True, None)


def perturbed(rng, pid, tag, k, extra, alphabet):
    """A lifted pair with one weight of one side zeroed, redrawn until the
    reference evaluator finds a separating word within depth n1 + n2."""
    while True:
        big, x_big, small, x_small = lifted_pair(rng, tag, k, extra, alphabet)
        if rng.random() < 0.5:
            big = _zero_one_weight(rng, big)
        else:
            small = _zero_one_weight(rng, small)
        if big is None or small is None:
            continue
        word = first_separating(big, x_big, small, x_small, big.n + small.n)
        if word is not None:
            return _oriented(rng, pid, big, x_big, small, x_small, False, len(word))


# ---------------------------------------------------------------------------
# planted chains


def _elementary_pair(rng, n):
    """A random unimodular basis change P and its inverse, as row lists."""
    p = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = F(rng.choice([-1, 1]))
        # row_i += c * row_j on P; the inverse gets col_j -= c * col_i
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= c * row[i]
    return p, p_inv


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def planted_chain(rng, pid, tag, length):
    """Two L-state chains over letters a, b that differ only in the output of
    the last state, each disguised by its own unimodular change of basis.

    Letter a moves state i to i+1 (the last state to zero), b loops on every
    state but the last, and only the last state has an output.  A word has
    nonzero weight only if it holds exactly L-1 a's, so a^(L-1) is the unique
    shortest separating word.
    """
    alphabet = ("a", "b")
    n = length
    sides = []
    for final in (F(1), F(rng.choice([2, 3, -1]))):
        base = {
            "a": [[F(int(i + 1 == j)) for j in range(n)] for i in range(n)],
            "b": [[F(int(i == j and i < n - 1)) for j in range(n)] for i in range(n)],
        }
        out = [F(0)] * (n - 1) + [final]
        p, p_inv = _elementary_pair(rng, n)
        # conjugate by P: images P T P^-1, output P out, start e_0 P^-1
        images = {a: _matmul(_matmul(p, base[a]), p_inv) for a in alphabet}
        new_out = [sum(r * o for r, o in zip(row, out)) for row in p]
        x = p_inv[0][:]
        sides.append((Automaton(tag, alphabet, new_out, images), x))
    (a1, x1), (a2, x2) = sides
    return Pair(pid, a1, x1, a2, x2, False, length - 1)


# ---------------------------------------------------------------------------
# workloads
#
# Pair i takes its class (tag, alphabet, sizes, negative or not) from fixed
# cycles over i; only the weights are drawn from the seed.  Every seed
# therefore gives the same mix, and seeds differ only in the weights.


def _cycle(options, i):
    return options[i % len(options)]


def _span_desk(rng, pid, i):
    # acceptance criteria 1 and 3 (k in 1..3, k + extra <= 4, 1-2 letters)
    # without (3, 1): about 1 in 150 one-letter nat pairs of that size takes
    # Hilbert completion over 3 s
    tag = _cycle(CUBIC_TAGS, i)
    alphabet = ("a", "b")[:_cycle((1, 2), i)]
    k, extra = _cycle(((1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0)),
                      i // 2)
    if i % 5 == 4:
        return perturbed(rng, pid, tag, k, extra, alphabet)
    return lifted(rng, pid, tag, k, extra, alphabet)


def _words_deep(rng, pid, i):
    tag = _cycle(("q", "int", "real"), i)
    if i % 5 == 4:
        return planted_chain(rng, pid, tag, _cycle(WORDS_CHAIN, i // 15))
    k, extra = _cycle(WORDS_LIFTED, i // 5)
    return lifted(rng, pid, tag, k, extra, ("a", "b"))


def _restrict_unary(rng, pid, i):
    # zigzag and verify take several times longer on rplus and unit than on
    # nat and qplus; with three times as many rplus and unit pairs, the
    # medians sit inside the rplus group instead of on a gap between groups
    tag = _cycle(("nat", "rplus", "unit", "rplus", "qplus", "unit", "rplus", "unit"), i)
    k, extra = _cycle(UNARY_SIZES[tag], i // 8)
    if i % 5 == 4:
        return perturbed(rng, pid, tag, k, extra, ("a",))
    return lifted(rng, pid, tag, k, extra, ("a",))


def _ghat_pca(rng, pid, i):
    k, extra = _cycle(PCA_SIZES, i // 5)
    if i % 5 == 4:
        return perturbed(rng, pid, "pca", k, extra, ("a",))
    return lifted(rng, pid, "pca", k, extra, ("a",))


WORDS_CHAIN = (6, 7, 8)
WORDS_LIFTED = ((2, 1), (2, 2), (3, 0), (3, 1), (2, 3))
# Hilbert completion on one-letter nat and qplus pairs with 3 states or more
# on the small side ran over 3 s for about 1 pair in 150.
UNARY_SIZES = {"nat": ((2, 1), (2, 2), (2, 3)),
               "qplus": ((2, 1), (2, 2), (2, 3)),
               "rplus": ((3, 1), (3, 2), (4, 1), (2, 3)),
               "unit": ((3, 1), (3, 2), (4, 1), (2, 3))}
PCA_SIZES = ((4, 0), (4, 1), (5, 0), (3, 1), (4, 1))

WORKLOADS = {
    "span-desk": _span_desk,
    "words-deep": _words_deep,
    "restrict-unary": _restrict_unary,
    "ghat-pca": _ghat_pca,
}


def make_pairs(workload, seed, count):
    """`count` pairs of a workload; the same arguments give the same pairs."""
    rng = random.Random(f"wazz-bench/{workload}/{seed}")
    gen = WORKLOADS[workload]
    return [gen(rng, f"{workload}/s{seed}/p{i}", i) for i in range(count)]
