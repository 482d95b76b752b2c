"""Distribution construction, Shannon primitives, circuits and file formats."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from infodecomp import CircuitSpec, JointDistribution, from_circuit
from infodecomp.dist import DEFAULT_TOLERANCE as TOL
from infodecomp.dist import Measurement
from infodecomp.errors import (
    AlphabetViolation,
    CyclicDefinition,
    DuplicateOutcome,
    EmptySupport,
    InvalidProbability,
    SumNotOne,
    SupportTooLarge,
    UnknownBit,
    UnknownVariable,
)
from conftest import (
    fraction_entropy,
    fraction_exact_entropy,
    grid_systems,
    one_third_system,
)

BIT = [0, 1]


def fair_coin():
    return JointDistribution.from_pmf(
        [((0,), Fraction(1, 2)), ((1,), Fraction(1, 2))], ["X"], [BIT]
    )


def xor_triple_pmf():
    entries = [((a, b, a ^ b), Fraction(1, 4)) for a, b in product(BIT, BIT)]
    return JointDistribution.from_pmf(entries, ["S1", "S2", "S3"], [BIT, BIT, BIT])


class TestFromPmf:
    def test_point_mass_is_valid_with_zero_entropy(self):
        d = JointDistribution.from_pmf([((7,), 1)], ["X"], [[7]])
        assert d.entropy("X") == 0.0

    def test_fair_coin(self):
        d = fair_coin()
        assert d.entropy("X") == 1.0

    def test_xor_consistent_triples(self):
        d = xor_triple_pmf()
        assert len(d.support) == 4
        assert d.conditional_entropy("S3", ["S1", "S2"]) == pytest.approx(0.0, abs=TOL)

    def test_probabilities_accept_rational_strings(self):
        d = JointDistribution.from_pmf(
            [((0,), "1/4"), ((1,), "3/4")], ["X"], [BIT]
        )
        assert d.support[0][1] == Fraction(1, 4)

    def test_zero_mass_outcomes_are_stripped(self):
        d = JointDistribution.from_pmf(
            [((0,), Fraction(1)), ((1,), Fraction(0))], ["X"], [BIT]
        )
        assert len(d.support) == 1

    def test_sum_not_one_rejected(self):
        with pytest.raises(SumNotOne):
            JointDistribution.from_pmf([((0,), "1/3")], ["X"], [BIT])

    def test_duplicate_outcome_rejected(self):
        with pytest.raises(DuplicateOutcome):
            JointDistribution.from_pmf(
                [((0,), "1/2"), ((0,), "1/2")], ["X"], [BIT]
            )

    def test_alphabet_violations(self):
        with pytest.raises(AlphabetViolation):
            JointDistribution.from_pmf([((2,), 1)], ["X"], [BIT])
        with pytest.raises(AlphabetViolation):
            JointDistribution.from_pmf([((0, 0), 1)], ["X"], [BIT])

    def test_float_probability_rejected(self):
        with pytest.raises(InvalidProbability):
            JointDistribution.from_pmf([((0,), 0.5), ((1,), 0.5)], ["X"], [BIT])

    def test_bool_probability_rejected(self):
        with pytest.raises(InvalidProbability, match="is a bool"):
            JointDistribution.from_pmf([((0,), True)], ["X"], [BIT])

    def test_all_zero_mass_rejected(self):
        with pytest.raises(EmptySupport):
            JointDistribution.from_pmf([((0,), 0)], ["X"], [BIT])

    def test_support_cap(self):
        entries = [((i,), Fraction(1, 4)) for i in range(4)]
        with pytest.raises(SupportTooLarge):
            JointDistribution.from_pmf(entries, ["X"], [list(range(4))], max_support=2)


class TestCircuits:
    def test_two_free_bits_no_xor_is_uniform_on_four(self):
        spec = CircuitSpec.create(["a", "b"], {}, {"A": ["a"], "B": ["b"]}, [])
        d = from_circuit(spec)
        assert len(d.support) == 4
        assert all(p == Fraction(1, 4) for _, p in d.support)

    def test_xor_triple_circuit(self, system2):
        d = system2.dist
        assert len(d.support) == 4
        assert d.variable_names() == ("S1", "S2", "S3", "T")
        # target values are bit tuples ordered by bit name
        assert d.entropy_exact("T") == 2

    def test_three_triple_circuit(self, system1):
        d = system1.dist
        assert len(d.support) == 64
        assert d.entropy_exact("T") == 3

    def test_marginal_of_any_free_bit_is_fair(self, system1_subtargets):
        d = system1_subtargets.dist
        for name in ("T1", "T2", "T3"):
            m = d.marginal(name)
            assert [p for _, p in m.support] == [Fraction(1, 2), Fraction(1, 2)]

    def test_grouping_order_is_immaterial(self):
        base = CircuitSpec.create(
            ["x1", "x2"], {"x3": ["x1", "x2"]}, {"S": ["x1", "x2", "x3"]}, []
        )
        shuffled = CircuitSpec.create(
            ["x1", "x2"], {"x3": ["x1", "x2"]}, {"S": ["x3", "x1", "x2"]}, []
        )
        assert from_circuit(base).support == from_circuit(shuffled).support

    def test_unknown_bit(self):
        with pytest.raises(UnknownBit):
            CircuitSpec.create(["a"], {"c": ["a", "nope"]}, {"A": ["a"]}, [])

    def test_forward_reference_is_cyclic(self):
        with pytest.raises(CyclicDefinition):
            CircuitSpec.create(["a"], [("c", ["d", "a"]), ("d", ["a"])], {"A": ["a"]}, [])

    def test_free_bit_cap(self):
        spec = CircuitSpec.create(
            [f"b{i}" for i in range(3)], {}, {"A": ["b0"]}, []
        )
        with pytest.raises(SupportTooLarge):
            from_circuit(spec, max_support=4)


class TestShannonPrimitives:
    def test_entropy_values_on_reference_systems(self, system1, system2):
        assert system2.dist.entropy("T") == 2.0
        assert system1.dist.entropy("T") == 3.0
        assert system1.dist.entropy(["S1", "S2", "S3"]) == 6.0

    def test_marginal_of_sources_is_uniform_on_eight(self, system1):
        m = system1.dist.marginal("S3")
        assert len(m.support) == 8
        assert all(p == Fraction(1, 8) for _, p in m.support)

    def test_marginal_onto_all_variables_is_identity(self, system2):
        d = system2.dist
        assert d.marginal(d.variable_names()).support == d.support

    def test_conditional_entropy(self, system1, system2):
        assert system2.dist.conditional_entropy("S3", ["S1", "S2"]) == 0.0
        assert system2.dist.conditional_entropy("S1", "S1") == 0.0
        assert system1.dist.conditional_entropy("S1", "T") == 2.0

    def test_mutual_information(self, system1, system2):
        d2 = system2.dist
        for a, b in combinations(("S1", "S2", "S3"), 2):
            assert d2.mutual_information(a, b) == pytest.approx(0.0, abs=TOL)
        assert d2.mutual_information("S1", "S1") == d2.entropy("S1")
        assert system1.dist.mutual_information(["S1", "S2", "S3"], "T") == 3.0

    def test_determinism_checks(self, system2, system1_subtargets):
        d2 = system2.dist
        assert d2.is_deterministic("T", ["S1", "S2"])
        assert d2.is_deterministic(["S1", "S2"], "T")
        two_coins = JointDistribution.from_pmf(
            [((a, b), Fraction(1, 4)) for a, b in product(BIT, BIT)],
            ["X", "Y"],
            [BIT, BIT],
        )
        assert not two_coins.is_deterministic("X", "Y")
        # the first target bit is pinned down by the other two sources
        assert system1_subtargets.dist.is_deterministic("T1", ["S2", "S3"])

    def test_independence_check_is_exact(self, system2):
        d = system2.dist
        assert d.is_independent("S1", "S2")
        assert not d.is_independent(["S1", "S2"], "S3")

    def test_unknown_variable(self, system2):
        with pytest.raises(UnknownVariable):
            system2.dist.entropy("nope")
        with pytest.raises(UnknownVariable):
            system2.dist.entropy([])

    def test_exact_entropy_needs_power_of_two_masses(self):
        d = JointDistribution.from_pmf(
            [((i,), Fraction(1, 3)) for i in range(3)], ["X"], [list(range(3))]
        )
        assert d.entropy_exact("X") is None
        assert d.entropy("X") == pytest.approx(1.584962500721156, abs=TOL)

    def test_exact_entropy_on_mixed_dyadic_masses(self):
        d = JointDistribution.from_pmf(
            [((0,), "1/2"), ((1,), "1/4"), ((2,), "1/4")], ["X"], [list(range(3))]
        )
        assert d.entropy_exact("X") == Fraction(3, 2)
        assert d.entropy("X") == 1.5


class TestInvariantsOnRandomCorpus:
    def test_chain_rule_and_bounds(self, corpus):
        names = ("A", "B", "C")
        for d in corpus[:60]:
            for g1 in names:
                rest = [n for n in names if n != g1]
                joint = [g1] + rest
                assert d.entropy(joint) == pytest.approx(
                    d.entropy(g1) + d.conditional_entropy(rest, g1), abs=TOL
                )
                assert d.entropy(g1) <= d.entropy(joint) + TOL
            for a, b in combinations(names, 2):
                i_ab = d.mutual_information(a, b)
                assert i_ab == pytest.approx(d.mutual_information(b, a), abs=TOL)
                assert i_ab >= -TOL
                assert i_ab <= min(d.entropy(a), d.entropy(b)) + TOL

    def test_dyadic_uniform_entropy_is_exact_integer(self, system1):
        d = system1.dist
        for group in ("S1", "S2", "S3", "T", ["S1", "S2"], ["S1", "S2", "S3"]):
            h = d.entropy(group)
            assert h == float(int(h))
            assert d.entropy_exact(group) == int(h)


class TestSerialization:
    def test_distribution_round_trip(self, system2, tmp_path):
        d = system2.dist
        path = tmp_path / "dist.json"
        d.dump(path)
        back = JointDistribution.load(path)
        assert back == d

    def test_circuit_round_trip(self, tmp_path):
        spec = CircuitSpec.create(
            ["x1", "x2"],
            {"x3": ["x1", "x2"]},
            {"S1": ["x1"], "S2": ["x2"], "S3": ["x3"]},
            ["x1", "x2", "x3"],
        )
        path = tmp_path / "circuit.json"
        spec.dump(path)
        back = CircuitSpec.load(path)
        assert back == spec
        assert from_circuit(back) == from_circuit(spec)

    def test_tuple_values_survive_json(self, system1, tmp_path):
        path = tmp_path / "sys1.json"
        system1.dist.dump(path)
        assert JointDistribution.load(path) == system1.dist


# --- the integer-count kernel against the Fraction formulas -----------------


def fraction_masses(d, group):
    """Marginal masses summed as Fractions, outcome by outcome."""
    indices = d.resolve(group)
    masses = {}
    for outcome, p in d.support:
        key = tuple(outcome[i] for i in indices)
        masses[key] = masses.get(key, Fraction(0)) + p
    return masses


def all_groups(d):
    indices = range(len(d.variables))
    return [g for k in range(1, len(d.variables) + 1) for g in combinations(indices, k)]


def assert_kernel_matches_fractions(d):
    for group in all_groups(d):
        masses = list(fraction_masses(d, group).values())
        assert repr(d.entropy(group)) == repr(fraction_entropy(masses)), group
        assert repr(d.entropy_exact(group)) == repr(fraction_exact_entropy(masses)), group
        marginal = d.marginal(group)
        assert dict(marginal.support) == fraction_masses(d, group)


class TestIntegerCounts:
    def test_counts_are_numerators_over_the_lcm(self):
        d = JointDistribution.from_pmf(
            [((0,), "1/3"), ((1,), "1/6"), ((2,), "1/2")], ["X"], [list(range(3))]
        )
        assert d._denominator == 6
        assert d._counts == (2, 1, 3)

    def test_kernel_matches_fractions_on_the_corpus(self, corpus):
        for d in corpus:
            assert_kernel_matches_fractions(d)

    def test_kernel_matches_fractions_on_grid_systems(self):
        for d in grid_systems():
            assert_kernel_matches_fractions(d)

    def test_kernel_matches_fractions_on_a_twelve_bit_circuit(self):
        bits = [f"x{i}" for i in range(12)]
        spec = CircuitSpec.create(
            bits,
            {"y1": ["x0", "x4", "x8"], "y2": ["x1", "x5", "x9"]},
            {"S1": bits[:4], "S2": bits[4:8], "S3": bits[8:]},
            ["y1", "y2"],
        )
        d = from_circuit(spec)
        assert len(d.support) == 4096
        assert d._denominator == 4096
        assert_kernel_matches_fractions(d)

    def test_dyadic_marginal_of_a_non_dyadic_pmf_is_exact(self):
        # N = 6 is not a power of two, but A's masses are 3/6 and 3/6.
        d = JointDistribution.from_pmf(
            [((0, 0), "1/3"), ((0, 1), "1/6"), ((1, 0), "1/2")],
            ["A", "B"],
            [BIT, BIT],
        )
        assert d.entropy_exact("A") == 1
        assert d.entropy("A") == 1.0
        assert d.entropy_exact("B") is None
        assert d.entropy_exact(["A", "B"]) is None

    def test_independence_agrees_with_brute_force_factorization(self, system1, system2):
        systems = grid_systems(count=120, seed=11) + [system1.dist, system2.dist]
        # Product pmfs, so that the factorizing case is exercised too.
        rng = random.Random(5)
        for _ in range(20):
            px = [Fraction(c, 8) for c in (1, 3, 4)]
            py = [Fraction(c, 6) for c in rng.choice([(1, 5), (2, 4), (3, 3)])]
            systems.append(
                JointDistribution.from_pmf(
                    [((x, y, x), px[x] * py[y]) for x, y in product(range(3), range(2))],
                    ["X", "Y", "Z"],
                    [list(range(3)), BIT, list(range(3))],
                )
            )
        factorized = 0
        for d in systems:
            groups = all_groups(d)
            for a in groups:
                for b in groups:
                    if set(a) & set(b):
                        continue
                    joint = tuple(sorted(a + b))
                    pa, pb = fraction_masses(d, a), fraction_masses(d, b)
                    pab = fraction_masses(d, joint)
                    expected = all(
                        pab.get(tuple(dict(zip(a + b, va + vb))[i] for i in joint), 0)
                        == ma * mb
                        for va, ma in pa.items()
                        for vb, mb in pb.items()
                    )
                    assert d.is_independent(a, b) == expected, (a, b)
                    factorized += expected
        assert factorized > 0



def support_scan_is_deterministic(d, group, given):
    """H(group | given) = 0 by a scan of the support: no value of `given`
    meets two values of `group`."""
    seen = {}
    for outcome, _ in d.support:
        key = tuple(outcome[i] for i in given)
        value = tuple(outcome[i] for i in group)
        if seen.setdefault(key, value) != value:
            return False
    return True


class TestMeasurement:
    def test_determinism_agrees_with_a_support_scan(self, corpus):
        systems = corpus + grid_systems() + grid_systems(count=200, seed=7, denominator=12)
        verdicts = set()
        for d in systems:
            m = Measurement(d)
            groups = all_groups(d)
            for group in groups:
                for given in [(), *groups]:
                    expected = support_scan_is_deterministic(d, group, given)
                    assert m.is_deterministic(group, given) == expected, (group, given)
                    verdicts.add(expected)
        assert verdicts == {True, False}

    def test_each_marginal_is_projected_once(self, projections):
        d = one_third_system()
        m = Measurement(d)
        for _ in range(2):
            m.mutual_information((0,), (1, 2))
            m.is_deterministic((0,), (1, 2))
            m.is_independent((0,), (1, 2))
        assert sorted(projections) == [(0,), (0, 1, 2), (1, 2)]

    def test_values_are_exact_only_where_every_mass_is_dyadic(self):
        floats = Measurement(one_third_system())  # masses 1/3 and 2/3
        assert type(floats.entropy((0,))) is float
        assert type(floats.mutual_information((0,), (1,))) is float
        exact = Measurement(xor_triple_pmf())
        h, i = exact.entropy((0,)), exact.mutual_information((0,), (1,))
        assert (type(h), h, type(i), i) == (Fraction, 1, Fraction, 0)
