"""Antichains of source subsets and their decomposition lattices.

An antichain is a nonempty set of nonempty source-index sets, none of which
contains another. Antichains are stored canonically (each element sorted,
elements ordered by size then lexicographically) over 1-based integer source
indices; binding indices to actual variables happens at the system level.

Two lattices are provided: the full lattice of all antichains over n sources
(n capped at 4; node counts 1, 4, 18, 166), and the half lattice over exactly
3 sources consisting of the 10 antichains that contain at least one singleton.
Each is built once per process, on first request, and shared by every caller.
The order is: beta ≼ alpha iff every element of alpha has a subset in beta.
Inside a lattice it is decided on bitmasks: a source subset is an n-bit
mask, and each node carries the set of its elements and the set of every
subset lying above one of them (its up-closure), both as masks over the
2**n - 1 subsets; beta ≼ alpha iff alpha's elements lie in beta's
up-closure, one integer test. Down-sets are the only traversal the
decomposition sum rules need, so they are computed on demand and memoized
per lattice (safe under concurrent readers: the cache is a plain dict only
ever written with idempotent values).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from typing import Iterable

from .errors import NotANode, TooManySources, UnsupportedArity

MAX_SOURCES = 4


@dataclass(frozen=True)
class Antichain:
    """Canonical antichain of nonempty source-index sets."""

    elements: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, elements: Iterable[Iterable[int]]) -> "Antichain":
        """Canonicalize and validate a collection of index sets."""
        sets = {tuple(sorted(set(e))) for e in elements}
        if not sets:
            raise ValueError("antichain must be nonempty")
        if any(not e for e in sets):
            raise ValueError("antichain elements must be nonempty")
        if any(i < 1 for e in sets for i in e):
            raise ValueError("source indices are 1-based")
        for a, b in combinations(sets, 2):
            if set(a) <= set(b) or set(b) <= set(a):
                raise ValueError(f"elements {a} and {b} violate the antichain condition")
        return cls(tuple(sorted(sets, key=lambda e: (len(e), e))))

    def contains_singleton(self) -> bool:
        return any(len(e) == 1 for e in self.elements)

    def relabel(self, mapping: dict[int, int]) -> "Antichain":
        """Rewrite source indices, e.g. to embed a subsystem antichain."""
        return Antichain.of(tuple(mapping[i] for i in e) for e in self.elements)

    def __str__(self) -> str:
        return format_antichain(self)


def leq(beta: Antichain, alpha: Antichain) -> bool:
    """beta ≼ alpha iff for every A in alpha some B in beta satisfies B ⊆ A."""
    alpha_sets = [set(a) for a in alpha.elements]
    beta_sets = [set(b) for b in beta.elements]
    return all(any(b <= a for b in beta_sets) for a in alpha_sets)


def format_antichain(antichain: Antichain) -> str:
    """Render in index notation, e.g. ``{{1}{23}}``."""
    inner = "".join("{" + "".join(str(i) for i in e) + "}" for e in antichain.elements)
    return "{" + inner + "}"


_ANTICHAIN_RE = re.compile(r"^\{(\{\d+\})+\}$")


def parse_antichain(text: str) -> Antichain:
    """Inverse of :func:`format_antichain`; accepts ``{{1}{23}}`` syntax."""
    s = text.strip().replace(" ", "")
    if not _ANTICHAIN_RE.match(s):
        raise ValueError(f"bad antichain syntax: {text!r}")
    elements = [
        tuple(int(ch) for ch in grp) for grp in re.findall(r"\{(\d+)\}", s[1:-1])
    ]
    return Antichain.of(elements)


def _mask(indices: Iterable[int]) -> int:
    """The source subset as an n-bit mask: source i is bit i - 1."""
    return sum(1 << (i - 1) for i in indices)


@dataclass(frozen=True)
class AntichainLattice:
    """All antichains over sources 1..n with the ≼ order decided on masks."""

    n: int
    kind: str  # "full" or "half"
    nodes: tuple[Antichain, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)
    _elements: tuple = field(init=False, repr=False, compare=False, hash=False)
    _up: tuple = field(init=False, repr=False, compare=False, hash=False)
    _downsets: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        # Bit s of these masks stands for the source subset whose mask is s.
        subsets = range(1, 1 << self.n)
        masks = [[_mask(e) for e in node.elements] for node in self.nodes]
        up = (sum(1 << s for s in subsets if any(s & m == m for m in ms)) for ms in masks)
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(self.nodes)})
        object.__setattr__(self, "_elements", tuple(sum(1 << m for m in ms) for ms in masks))
        object.__setattr__(self, "_up", tuple(up))
        object.__setattr__(self, "_downsets", {})

    def _position(self, antichain: Antichain) -> int:
        try:
            return self._index[antichain]
        except KeyError:
            raise NotANode(f"{antichain} is not a node of this {self.kind} lattice") from None

    def leq(self, beta: Antichain, alpha: Antichain) -> bool:
        b, a = self._position(beta), self._position(alpha)
        return not self._elements[a] & ~self._up[b]

    def downset(self, alpha: Antichain) -> tuple[Antichain, ...]:
        """All nodes beta with beta ≼ alpha, alpha included, in node order."""
        cached = self._downsets.get(alpha)
        if cached is None:
            above = self._elements[self._position(alpha)]
            cached = tuple(
                beta for beta, up in zip(self.nodes, self._up) if not above & ~up
            )
            self._downsets[alpha] = cached
        return cached

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __contains__(self, antichain: Antichain) -> bool:
        return antichain in self._index


def enumerate_full(n: int) -> AntichainLattice:
    """Every antichain of nonempty subsets of {1..n}; one shared lattice per n."""
    if n < 1:
        raise ValueError("need at least one source")
    if n > MAX_SOURCES:
        raise TooManySources(
            f"{n} sources refused: the antichain count explodes beyond n={MAX_SOURCES}"
        )
    return _full_lattice(n)


def enumerate_half(n: int) -> AntichainLattice:
    """The 10 antichains over 3 sources that contain at least one singleton."""
    if n != 3:
        raise UnsupportedArity("the half lattice is defined only for exactly 3 sources")
    return _half_lattice()


@cache
def _full_lattice(n: int) -> AntichainLattice:
    """Grow antichains one subset at a time, taking subsets in canonical
    order so each element tuple is canonical as built. A subset may join
    unless it is comparable to a chosen one: one test against the union of
    the chosen subsets' conflict masks."""
    sources = range(1, n + 1)
    subsets = [c for size in sources for c in combinations(sources, size)]
    masks = [_mask(c) for c in subsets]
    conflicts = [
        sum(1 << j for j, t in enumerate(masks) if (s & t) in (s, t)) for s in masks
    ]
    found: list[tuple[tuple[int, ...], ...]] = []

    def extend(chosen: tuple, blocked: int, start: int) -> None:
        for i in range(start, len(masks)):
            if not blocked >> i & 1:
                grown = (*chosen, subsets[i])
                found.append(grown)
                extend(grown, blocked | conflicts[i], i + 1)

    extend((), 0, 0)
    return AntichainLattice(n, "full", tuple(Antichain(e) for e in sorted(found)))


@cache
def _half_lattice() -> AntichainLattice:
    nodes = tuple(a for a in enumerate_full(3).nodes if a.contains_singleton())
    return AntichainLattice(3, "half", nodes)
