"""Common-partition redundancy: examples, axioms, and the coarsening oracle."""

from fractions import Fraction
from itertools import permutations, product

import pytest

from infodecomp import JointDistribution, common_partition, red2, red3
from infodecomp.dist import DEFAULT_TOLERANCE as TOL
from conftest import (
    SOURCES_ABC,
    fraction_entropy,
    fraction_exact_entropy,
    gk_bruteforce,
    one_third_system,
)

BIT = [0, 1]


def copy_triple():
    return JointDistribution.from_pmf(
        [((0, 0, 0), "1/2"), ((1, 1, 1), "1/2")], ["A", "B", "C"], [BIT, BIT, BIT]
    )


def independent_coins():
    entries = [
        ((a, b, c), Fraction(1, 8)) for a, b, c in product(BIT, BIT, BIT)
    ]
    return JointDistribution.from_pmf(entries, ["A", "B", "C"], [BIT, BIT, BIT])


def pair_and_join():
    # A, B independent coins and C = (A, B)
    entries = [((a, b, (a, b)), Fraction(1, 4)) for a, b in product(BIT, BIT)]
    alphabets = [BIT, BIT, [(0, 0), (0, 1), (1, 0), (1, 1)]]
    return JointDistribution.from_pmf(entries, ["A", "B", "C"], alphabets)


class TestCommonPartition:
    def test_copy_system_has_two_blocks(self):
        part = common_partition(copy_triple(), list(SOURCES_ABC))
        assert len(part.blocks) == 2
        assert part.value == 1
        assert type(part.value) is Fraction
        assert part.block_probabilities == (Fraction(1, 2), Fraction(1, 2))

    def test_independent_coins_collapse_to_one_block(self):
        part = common_partition(independent_coins(), list(SOURCES_ABC))
        assert len(part.blocks) == 1
        assert part.value == 0.0

    def test_value_is_exact_on_dyadic_blocks_and_a_float_otherwise(self):
        d = one_third_system()
        one_block = common_partition(d, list(SOURCES_ABC)).value
        assert (type(one_block), one_block) == (Fraction, 0)
        # A alone splits off the first outcome: blocks of 1/3 and 2/3.
        two_blocks = common_partition(d, [("A",), ("B", "C")])
        assert two_blocks.block_probabilities == (Fraction(1, 3), Fraction(2, 3))
        assert type(two_blocks.value) is float
        assert repr(two_blocks.value) == repr(fraction_entropy(two_blocks.block_probabilities))

    def test_xor_triple_has_trivial_common_part(self, system2):
        part = common_partition(system2.dist, [("S1",), ("S2",), ("S3",)])
        assert len(part.blocks) == 1
        assert part.value == 0.0

    def test_blocks_partition_the_support(self):
        d = pair_and_join()
        part = common_partition(d, list(SOURCES_ABC))
        flattened = [o for block in part.blocks for o in block]
        assert sorted(flattened) == sorted(o for o, _ in d.support)
        assert sum(part.block_probabilities, Fraction(0)) == 1

    def test_every_source_value_lies_in_one_block(self, corpus):
        for d in corpus[:40]:
            part = common_partition(d, list(SOURCES_ABC))
            block_of = {
                outcome: bi for bi, block in enumerate(part.blocks) for outcome in block
            }
            for group in SOURCES_ABC:
                idx = d.resolve(group)
                value_blocks: dict[tuple, set[int]] = {}
                for outcome, _ in d.support:
                    key = tuple(outcome[i] for i in idx)
                    value_blocks.setdefault(key, set()).add(block_of[outcome])
                assert all(len(bs) == 1 for bs in value_blocks.values())

    def test_requires_two_sources_and_nonempty_support(self, system2):
        with pytest.raises(ValueError):
            common_partition(system2.dist, [("S1",)])

    def test_deterministic_block_order(self):
        d = copy_triple()
        first = common_partition(d, list(SOURCES_ABC))
        second = common_partition(d, list(SOURCES_ABC))
        assert first == second
        assert first.blocks[0][0] == (0, 0, 0)


class TestRedValues:
    def test_red3_examples(self, system2):
        assert red3(system2.dist, ("S1",), ("S2",), ("S3",)) == 0.0
        assert red3(copy_triple(), *SOURCES_ABC) == 1.0
        assert red3(pair_and_join(), *SOURCES_ABC) == 0.0

    def test_red2_examples(self, system2):
        assert red2(system2.dist, ("S1",), ("S2",)) == pytest.approx(0.0, abs=TOL)
        assert red2(copy_triple(), ("A",), ("B",)) == 1.0
        assert red2(pair_and_join(), ("A",), ("C",)) == 1.0

    def test_red2_is_mutual_information_by_construction(self, corpus):
        for d in corpus[:30]:
            for a, b in (("A", "B"), ("A", "C"), ("B", "C")):
                assert red2(d, (a,), (b,)) == d.mutual_information(a, b)


class TestAxioms:
    def test_commutativity_exact(self, corpus):
        for d in corpus[:60]:
            values = {
                red3(d, *perm) for perm in permutations(SOURCES_ABC)
            }
            assert len(values) == 1

    def test_monotonicity_under_pairwise_information(self, corpus):
        for d in corpus[:200]:
            r = red3(d, *SOURCES_ABC)
            pair_min = min(
                d.mutual_information(a, b)
                for a, b in (("A", "B"), ("A", "C"), ("B", "C"))
            )
            assert r <= pair_min + TOL


class TestMaximalityOracle:
    def observed_alphabet_sizes(self, d):
        return [
            len({tuple(o[i] for i in d.resolve(g)) for o, _ in d.support})
            for g in SOURCES_ABC
        ]

    def test_structured_systems(self, system2):
        for d in (copy_triple(), independent_coins(), pair_and_join(), system2.dist):
            sources = (
                [("S1",), ("S2",), ("S3",)]
                if "S1" in d.variable_names()
                else list(SOURCES_ABC)
            )
            part = common_partition(d, sources)
            assert sorted(part.block_probabilities) == gk_bruteforce(d, sources)

    def test_random_small_alphabets(self, corpus):
        checked = 0
        for d in corpus:
            if max(self.observed_alphabet_sizes(d)) > 3:
                continue
            part = common_partition(d, list(SOURCES_ABC))
            assert sorted(part.block_probabilities) == gk_bruteforce(
                d, list(SOURCES_ABC)
            )
            checked += 1
            if checked >= 80:
                break
        assert checked >= 20


class TestBlockProbabilities:
    def test_block_masses_are_the_fraction_sums_of_their_outcomes(self, corpus, system1):
        for d in corpus + [system1.dist, pair_and_join(), copy_triple()]:
            sources = [(0,), (1,), (2,)]
            part = common_partition(d, sources)
            mass = dict(d.support)
            expected = tuple(
                sum((mass[o] for o in block), Fraction(0)) for block in part.blocks
            )
            assert part.block_probabilities == expected
            assert all(type(p) is Fraction for p in part.block_probabilities)
            exact = fraction_exact_entropy(expected)
            if exact is None:
                assert repr(part.value) == repr(fraction_entropy(expected))
            else:
                assert (type(part.value), part.value) == (Fraction, exact)

