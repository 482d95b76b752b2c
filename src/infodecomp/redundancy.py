"""Operational redundancy via the Gács-Körner common partition.

The three-way redundancy of source groups is the entropy of the maximal
variable Q that each source determines (H(Q|S_i) = 0 for every i). Any such
Q induces a partition of the joint support that is a union of value-classes
of every source, so the finest feasible partition — the connected components
of the "agrees on some source value" graph — realizes the maximizer, and
computing it is a single union-find pass instead of a search over alphabets.

Pair redundancy is deliberately plain mutual information, not the two-source
common information.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dist import GroupLike, JointDistribution, Outcome, _entropy
from .errors import EmptySupport


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Lower index wins so block representatives are stable.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


@dataclass(frozen=True)
class CommonPartition:
    """Support partition realizing the maximal common variable Q.

    Blocks are ordered by their smallest outcome in canonical support order,
    so repeated runs produce identical output. `value` is H(Q) in bits, an
    exact Fraction when every block mass is a power of 1/2 and a float
    otherwise.
    """

    blocks: tuple[tuple[Outcome, ...], ...]
    block_probabilities: tuple[Fraction, ...]
    value: Fraction | float


def common_partition(
    d: JointDistribution, sources: list[GroupLike]
) -> CommonPartition:
    """Connected components of support outcomes agreeing on some source value."""
    if len(sources) < 2:
        raise ValueError("need at least two source groups")
    if not d.support:
        raise EmptySupport("distribution has empty support")
    resolved = [d.resolve(g) for g in sources]
    outcomes = [outcome for outcome, _ in d.support]
    counts = d._counts
    uf = _UnionFind(len(outcomes))
    for indices in resolved:
        by_value: dict[Outcome, int] = {}
        for pos, outcome in enumerate(outcomes):
            key = tuple(outcome[i] for i in indices)
            first = by_value.setdefault(key, pos)
            if first != pos:
                uf.union(first, pos)
    members: dict[int, list[int]] = {}
    for pos in range(len(outcomes)):
        members.setdefault(uf.find(pos), []).append(pos)
    ordered_roots = sorted(members, key=lambda root: min(members[root]))
    blocks = tuple(
        tuple(outcomes[pos] for pos in sorted(members[root])) for root in ordered_roots
    )
    block_counts = [
        sum([counts[pos] for pos in members[root]]) for root in ordered_roots
    ]
    n = d._denominator
    return CommonPartition(
        blocks=blocks,
        block_probabilities=tuple(Fraction(c, n) for c in block_counts),
        value=_entropy(block_counts, n),
    )


def red3(d: JointDistribution, s1: GroupLike, s2: GroupLike, s3: GroupLike) -> float:
    """Three-way redundancy: H(Q) of the common partition of the sources."""
    return float(common_partition(d, [s1, s2, s3]).value)


def red2(d: JointDistribution, s1: GroupLike, s2: GroupLike) -> float:
    """Pair redundancy: exactly the mutual information of the two groups."""
    return d.mutual_information(s1, s2)
