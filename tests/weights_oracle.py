"""The `Fraction` form of the tag weight rules, kept as a differential oracle.

`wazz.automata.check_weights` reads each letter matrix scaled once to
integers, and `SemiringTag.scalar_ok`/`entry_ok` read a scalar's numerator
and denominator; these are the rules they replaced, which compare every
entry of every column as a `Fraction` and sum each column with `Fraction`
additions.  They use nothing of the tag but its identity.  The tests require
the same verdicts, and the same `TagViolation` message and cells at the
first violation.
"""

from wazz.automata import SemiringTag, TagViolation
from wazz.formats import fmt_rat

from matvec_oracle import column, columns, fractions

T = SemiringTag
INTEGRAL = (T.NAT, T.INT)
NONNEG = (T.NAT, T.QPLUS, T.RPLUS, T.UNIT, T.PCA)
WITHIN_ONE = (T.UNIT, T.PCA)


def entry_ok(tag, q):
    return (tag not in INTEGRAL or q.denominator == 1) and (tag not in NONNEG or q >= 0)


def scalar_ok(tag, q):
    return entry_ok(tag, q) and (tag not in WITHIN_ONE or q <= 1)


def check_weights(tag, out, trans):
    out = fractions(out)
    for j, q in enumerate(out):
        if not scalar_ok(tag, q):
            raise TagViolation(f"output entry {fmt_rat(q)} violates tag {tag.value}",
                               ((None, j),))
    for k, m in enumerate(trans):
        for j, col in enumerate(columns(m)):
            for q in col:
                if not entry_ok(tag, q):
                    raise TagViolation(f"entry {fmt_rat(q)} violates tag {tag.value}",
                                       ((k, j),))
            if tag is T.UNIT and sum(col) > 1:
                raise TagViolation("column sums must stay within 1 for unit tag", ((k, j),))
    if tag is T.PCA:
        for j in range(len(out)):
            if out[j] + sum(sum(column(m, j)) for m in trans) > 1:
                raise TagViolation(f"state {j + 1}: output plus transition mass exceeds 1",
                                   ((None, j),) + tuple((k, j) for k in range(len(trans))))
