"""The defining relation of M on the whole space that `eq-relation-cliff` samples.

For every Levi word Y of one or two `PROBE_LEVI_TOKENS` (4 + 16 = 20), every
first factor x of `probe_first_factors()`, xi_i or xi_i xi*_j over
`PROBE_XI_INDICES` (3 + 9 = 12), and every T of `probe_base_operators()` (4),
checks exactly with `m_relation_holds` that

    reduce_to_M(t (Y (x) 1)) == reduce_to_M(t (1 (x) rho(S(Y)))),  t = x (x) T,

960 cases, of which the check's probe draws 8 at random.  Exhaustive on this
finite domain only (the small scope hypothesis), not a proof of the relation
for all of U_q(l).

Exit status 1 on a failing case, or when the number of cases run differs
from the product of the sizes of the three parts of the space.

    PYTHONPATH=src python tools/m_relation.py
"""

from __future__ import annotations

import itertools
import sys
import time

from qlg2.parthasarathy import (
    PROBE_LEVI_TOKENS, PROBE_XI_INDICES, m_relation_holds, m_relation_sides,
    probe_base_operators, probe_first_factors,
)
from qlg2.pbw import normal_form


def main():
    start = time.perf_counter()
    words = [w for n in (1, 2) for w in itertools.product(PROBE_LEVI_TOKENS, repeat=n)]
    firsts, ops = probe_first_factors(), probe_base_operators()
    cases, failed = 0, []
    for word in words:
        sides = m_relation_sides(normal_form(word))
        for key, first in firsts.items():
            for b, op in enumerate(ops):
                if not m_relation_holds(sides, first, op):
                    failed.append((word, key, b))
                cases += 1
    n, k = len(PROBE_LEVI_TOKENS), len(PROBE_XI_INDICES)
    want = (n + n * n) * (k + k * k) * len(ops)
    for word, key, b in failed:
        print(f"m_relation: fails at Y = {word}, first factor {key}, operator {b}")
    print(f"m_relation: {cases} cases ({len(words)} Levi words x {len(firsts)} "
          f"first factors x {len(ops)} operators), {len(failed)} failing, "
          f"{time.perf_counter() - start:.1f} s")
    counted = cases == want == 960
    if not counted:
        print(f"m_relation: ran {cases} cases, want {want} = 960")
    return 0 if counted and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
