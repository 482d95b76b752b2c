"""Test-only reference: the exhaustive subset scan over the 18 full-scope
atoms, one subset after another in Gray-code order.

This is ``scan_universal_subsets`` as it stood before the meet-in-the-middle
search, kept so that the search can be held to the same valid masks. Each
step flips one atom in or out, so the two running integer sums change by a
single value; all 2**18 subsets are visited.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from infodecomp.lattice import enumerate_full
from infodecomp.systems import AtomAssignment


def reference_valid_masks(
    a1: AtomAssignment, a2: AtomAssignment, i1: Fraction, i2: Fraction
) -> tuple[int, ...]:
    """Ascending bitmasks, over the full lattice's node order, of the subsets
    whose atoms sum to ``i1`` on ``a1`` and to ``i2`` on ``a2``."""
    order = enumerate_full(3).nodes
    d1, d2 = a1.as_dict(), a2.as_dict()
    scale = lcm(
        *(v.denominator for v in d1.values()),
        *(v.denominator for v in d2.values()),
        i1.denominator,
        i2.denominator,
    )
    v1 = [int(d1[a] * scale) for a in order]
    v2 = [int(d2[a] * scale) for a in order]
    t1, t2 = int(i1 * scale), int(i2 * scale)

    valid: list[int] = []
    s1 = s2 = 0
    if s1 == t1 and s2 == t2:
        valid.append(0)
    gray = 0
    for step in range(1, 1 << len(order)):
        bit = (step & -step).bit_length() - 1
        gray ^= 1 << bit
        if gray >> bit & 1:
            s1 += v1[bit]
            s2 += v2[bit]
        else:
            s1 -= v1[bit]
            s2 -= v2[bit]
        if s1 == t1 and s2 == t2:
            valid.append(gray)
    return tuple(sorted(valid))
