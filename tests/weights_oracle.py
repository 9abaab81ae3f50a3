"""The `Fraction` form of the tag weight rules, kept as a differential oracle.

`wazz.automata.check_weights` reads each letter matrix scaled once to
integers; this is the rule it replaced, which compares every entry of every
column as a `Fraction` and sums each column with `Fraction` additions.  The
tests require the same `TagViolation` message and cells at the first
violation.
"""

from wazz.automata import SemiringTag, TagViolation
from wazz.formats import fmt_rat


def check_weights(tag, out, trans):
    for j, q in enumerate(out):
        if not tag.scalar_ok(q):
            raise TagViolation(f"output entry {fmt_rat(q)} violates tag {tag.value}",
                               ((None, j),))
    for k, m in enumerate(trans):
        for j, col in enumerate(m.cols()):
            for q in col:
                if not tag.entry_ok(q):
                    raise TagViolation(f"entry {fmt_rat(q)} violates tag {tag.value}",
                                       ((k, j),))
            if tag is SemiringTag.UNIT and sum(col) > 1:
                raise TagViolation("column sums must stay within 1 for unit tag", ((k, j),))
    if tag is SemiringTag.PCA:
        for j in range(len(out)):
            if out[j] + sum(sum(m.col(j)) for m in trans) > 1:
                raise TagViolation(f"state {j + 1}: output plus transition mass exceeds 1",
                                   ((None, j),) + tuple((k, j) for k in range(len(trans))))
