"""Shared fixtures and test-only references: the reference systems, a seeded
random dyadic corpus, random grid systems and the Fraction entropy formulas."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from infodecomp import JointDistribution, build_system1, build_system2

CORPUS_SEED = 20260809
CORPUS_SIZE = 1000
CORPUS_DENOMINATOR = 64

SOURCES_ABC = (("A",), ("B",), ("C",))


def random_dyadic_system(rng: random.Random, max_alphabet: int = 4) -> JointDistribution:
    """A 3-variable distribution with masses on a 1/64 dyadic grid."""
    sizes = [rng.randint(2, max_alphabet) for _ in range(3)]
    cells = list(product(*(range(k) for k in sizes)))
    chosen = rng.sample(cells, rng.randint(1, min(len(cells), CORPUS_DENOMINATOR)))
    counts = [1] * len(chosen)
    for _ in range(CORPUS_DENOMINATOR - len(chosen)):
        counts[rng.randrange(len(chosen))] += 1
    entries = [
        (cell, Fraction(count, CORPUS_DENOMINATOR))
        for cell, count in zip(chosen, counts)
    ]
    return JointDistribution.from_pmf(
        entries, ["A", "B", "C"], [list(range(k)) for k in sizes]
    )


def grid_system(rng, denominator=16):
    """Four variables with 2-3 values and masses on a 1/denominator grid."""
    sizes = [rng.choice((2, 3)) for _ in range(4)]
    cells = list(product(*(range(k) for k in sizes)))
    chosen = rng.sample(cells, rng.randint(1, min(len(cells), denominator)))
    counts = [1] * len(chosen)
    for _ in range(denominator - len(chosen)):
        counts[rng.randrange(len(chosen))] += 1
    return JointDistribution.from_pmf(
        [(cell, Fraction(c, denominator)) for cell, c in zip(chosen, counts)],
        ["W", "X", "Y", "Z"],
        [list(range(k)) for k in sizes],
    )


def grid_systems(count=200, seed=3, denominator=16):
    rng = random.Random(seed)
    return [grid_system(rng, denominator) for _ in range(count)]


def one_third_system() -> JointDistribution:
    """{(0,0,0), (1,0,1), (1,1,0)} at 1/3 each: no mass is a power of 1/2."""
    return JointDistribution.from_pmf(
        [(o, Fraction(1, 3)) for o in ((0, 0, 0), (1, 0, 1), (1, 1, 0))],
        ["A", "B", "C"],
        [[0, 1]] * 3,
    )


@pytest.fixture
def projections(monkeypatch) -> list[tuple[int, ...]]:
    """The index tuples of every marginal projection made during the test."""
    calls = []
    project = JointDistribution._project_counts

    def counted(self, indices):
        calls.append(indices)
        return project(self, indices)

    monkeypatch.setattr(JointDistribution, "_project_counts", counted)
    return calls


@pytest.fixture(scope="session")
def corpus() -> list[JointDistribution]:
    rng = random.Random(CORPUS_SEED)
    return [random_dyadic_system(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def system1():
    return build_system1()


@pytest.fixture(scope="session")
def system1_subtargets():
    return build_system1(with_subtargets=True)


@pytest.fixture(scope="session")
def system2():
    return build_system2()


def fraction_entropy(masses) -> float:
    """The float entropy formula on reduced Fractions, in sorted order."""
    masses = sorted(masses)
    m = len(masses)
    if all(p == masses[0] for p in masses):
        return float(m.bit_length() - 1) if m & (m - 1) == 0 else math.log2(m)
    total = 0.0
    for p in masses:
        total += float(p) * (math.log2(p.denominator) - math.log2(p.numerator))
    return total


def fraction_exact_entropy(masses) -> Fraction | None:
    """The exact entropy when every mass is 2**-k, summed as Fractions; else None."""
    total = Fraction(0)
    for p in masses:
        if p.numerator != 1 or p.denominator & (p.denominator - 1):
            return None
        total += p * (p.denominator.bit_length() - 1)
    return total


def set_partitions(items: list):
    """All partitions of a list, for brute-force feasibility oracles."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def gk_bruteforce(d: JointDistribution, sources) -> list[Fraction]:
    """Best-entropy feasible common variable by enumerating coarsenings.

    Any Q with H(Q|S_i) = 0 for all i is a function of the first source, so
    partitions of its observed values cover every candidate up to relabeling.
    Returns the sorted block masses of the best feasible partition.
    """
    first = d.resolve(sources[0])
    others = [d.resolve(s) for s in sources[1:]]
    observed = sorted({tuple(o[i] for i in first) for o, _ in d.support})
    best_masses: list[Fraction] | None = None
    best_entropy = -1.0
    for partition in set_partitions(observed):
        label = {v: bi for bi, block in enumerate(partition) for v in block}
        feasible = True
        for idx in others:
            seen: dict[tuple, int] = {}
            for outcome, _ in d.support:
                key = tuple(outcome[i] for i in idx)
                lab = label[tuple(outcome[i] for i in first)]
                if seen.setdefault(key, lab) != lab:
                    feasible = False
                    break
            if not feasible:
                break
        if not feasible:
            continue
        masses: dict[int, Fraction] = {}
        for outcome, p in d.support:
            lab = label[tuple(outcome[i] for i in first)]
            masses[lab] = masses.get(lab, Fraction(0)) + p
        # Only ranks partitions: the finest feasible one is strictly the largest.
        h = -sum(float(p) * math.log2(p) for p in masses.values())
        if h > best_entropy:
            best_entropy = h
            best_masses = sorted(masses.values())
    assert best_masses is not None  # the one-block partition is always feasible
    return best_masses
