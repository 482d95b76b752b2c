"""Built-in systems, table deductions, the subset scan and the check table."""

import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from gray_code_scan import reference_valid_masks
from infodecomp import (
    AtomAssignment,
    run_all_checks,
    scan_universal_subsets,
    verify_contradiction_system2,
    verify_matching_tables,
    verify_no_universal_subset,
    verify_synergy_excess,
)
from infodecomp.errors import KeyMismatch
from infodecomp.lattice import enumerate_full, parse_antichain
from infodecomp.systems import golden_assignment


class TestBuilders:
    def test_xor_triple_shape(self, system2):
        d = system2.dist
        assert len(d.support) == 4
        assert d.entropy_exact("T") == 2
        assert [d.entropy_exact(s) for s in ("S1", "S2", "S3")] == [1, 1, 1]
        for i, j in (("S1", "S2"), ("S1", "S3"), ("S2", "S3")):
            assert d.is_deterministic("T", [i, j])
            assert d.is_deterministic([i, j], "T")

    def test_triple_xor_shape(self, system1, system1_subtargets):
        d = system1.dist
        assert len(d.support) == 64
        assert d.entropy_exact("T") == 3
        ds = system1_subtargets.dist
        assert ds.mutual_information("S2", "T1") == 0.0
        assert ds.mutual_information("S3", "T1") == 0.0
        assert ds.conditional_entropy("T1", ["S2", "S3"]) == 0.0

    def test_builds_are_deterministic(self, system1, system2):
        from infodecomp import build_system1, build_system2

        assert build_system1().dist == system1.dist
        assert build_system2().dist == system2.dist


class TestContradictionReproduction:
    def test_report_values(self):
        report = verify_contradiction_system2()
        assert report.wesp.gap == 1
        assert report.wesp.atom_lower_bound == 3
        assert report.wesp.mutual_information == 2
        assert report.pair_shared_atoms == (0, 0, 0)
        assert report.per_source_sums == (1, 1, 1)
        assert report.replay_ok

    @pytest.mark.parametrize("order", [(2, 3, 1), (3, 1, 2), (2, 1, 3)])
    def test_source_permutations_do_not_matter(self, order):
        base = verify_contradiction_system2()
        permuted = verify_contradiction_system2(order=order)
        assert permuted.wesp.gap == base.wesp.gap
        assert permuted.pair_shared_atoms == base.pair_shared_atoms
        assert permuted.per_source_sums == base.per_source_sums


class TestMatchingTables:
    def test_tables_match_and_informations_differ(self):
        match = verify_matching_tables()
        assert match.tables_equal
        assert match.matches_golden
        assert match.system1.total_information == 3
        assert match.system2.total_information == 2

    def test_deduced_tables_equal_golden(self):
        match = verify_matching_tables()
        golden = golden_assignment("expected").as_dict()
        assert match.system1.assignment.as_dict() == golden
        assert match.system2.assignment.as_dict() == golden

    def test_three_synergy_atoms_carry_one_bit(self):
        table = verify_matching_tables().system1.assignment.as_dict()
        nonzero = {str(a) for a, v in table.items() if v != 0}
        assert nonzero == {"{{1}{23}}", "{{2}{13}}", "{{3}{12}}"}


class TestSubsetScan:
    def test_no_subset_works_for_the_deduced_tables(self):
        result = verify_no_universal_subset()
        assert result.subsets_checked == 1 << 18
        assert result.valid_masks == ()

    def test_equal_targets_admit_subsets(self):
        golden = golden_assignment("g")
        result = scan_universal_subsets(golden, golden, Fraction(3), Fraction(2))
        assert result.valid_masks == ()
        result = scan_universal_subsets(golden, golden, Fraction(3), Fraction(3))
        assert len(result.valid_masks) > 0
        synergy_only = {
            parse_antichain("{{1}{23}}"),
            parse_antichain("{{2}{13}}"),
            parse_antichain("{{3}{12}}"),
        }
        decoded = [set(result.decode(mask)) for mask in result.valid_masks]
        assert any(d & synergy_only == synergy_only for d in decoded)

    def test_all_zero_assignment_accepts_every_subset(self):
        order = enumerate_full(3).nodes
        zero = AtomAssignment("z", tuple((a, Fraction(0)) for a in order))
        result = scan_universal_subsets(zero, zero, Fraction(0), Fraction(0))
        assert len(result.valid_masks) == 1 << 18

    def test_scan_against_direct_recomputation(self):
        golden = golden_assignment("g")
        result = scan_universal_subsets(golden, golden, Fraction(2), Fraction(2))
        values = [golden.as_dict()[a] for a in result.atom_order]
        valid = set(result.valid_masks)
        rng = random.Random(7)
        for mask in rng.sample(range(1 << 18), 400):
            s = sum(
                (values[b] for b in range(18) if mask >> b & 1), Fraction(0)
            )
            assert (mask in valid) == (s == 2)

    def test_key_mismatch(self):
        order = enumerate_full(3).nodes
        partial = AtomAssignment(
            "bad", tuple((a, Fraction(0)) for a in order[:-1])
        )
        with pytest.raises(KeyMismatch):
            scan_universal_subsets(
                partial, golden_assignment("g"), Fraction(0), Fraction(0)
            )

    def test_rational_values_scan_exactly(self):
        order = enumerate_full(3).nodes
        values = tuple(
            (a, Fraction(1, 3) if i < 6 else Fraction(0))
            for i, a in enumerate(order)
        )
        assignment = AtomAssignment("thirds", values)
        result = scan_universal_subsets(
            assignment, assignment, Fraction(1), Fraction(1)
        )
        # three of the six 1/3 atoms, any mix of the twelve zero atoms
        assert len(result.valid_masks) == 20 * 2**12


def atom_values():
    """Small signed integers and rationals with denominators 1 to 6."""
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def scan_cases(draw):
    """Two random 18-atom tables and two targets. Half the cases take the
    targets from the sums of one drawn subset, so that some subset works."""
    order = enumerate_full(3).nodes
    tables = [draw(st.lists(atom_values(), min_size=18, max_size=18)) for _ in range(2)]
    if draw(st.booleans()):
        mask = draw(st.integers(0, (1 << 18) - 1))
        targets = [sum((v for b, v in enumerate(t) if mask >> b & 1), Fraction(0)) for t in tables]
    else:
        targets = [draw(atom_values()) for _ in range(2)]
    a1, a2 = (AtomAssignment(f"t{k}", tuple(zip(order, t))) for k, t in enumerate(tables))
    return a1, a2, targets[0], targets[1]


# Each example walks all 2**18 subsets in the reference, so shrinking a
# failure would take minutes; the failing example is reported unshrunk.
@settings(derandomize=True, deadline=None, max_examples=10, phases=[Phase.generate])
@given(scan_cases())
def test_scan_matches_the_gray_code_walk(case):
    a1, a2, i1, i2 = case
    result = scan_universal_subsets(a1, a2, i1, i2)
    assert result.subsets_checked == 1 << 18
    assert result.valid_masks == reference_valid_masks(a1, a2, i1, i2)


class TestSynergyExcess:
    def test_reference_values(self):
        result = verify_synergy_excess()
        assert result.synergy_sum == 3
        assert result.joint_entropy == 2
        assert result.violates_wesp


class TestCheckTable:
    def test_every_builtin_check_passes(self):
        results = run_all_checks()
        assert len(results) == 5
        assert all(r.passed for r in results), [r for r in results if not r.passed]

    def test_both_systems_are_deduced_once(self, monkeypatch):
        from infodecomp import systems

        calls = []

        def counted():
            calls.append(1)
            return verify_matching_tables()

        monkeypatch.setattr(systems, "verify_matching_tables", counted)
        results = run_all_checks()
        assert len(calls) == 1
        assert [r.name for r in results] == [
            "xor-triple-contradiction",
            "matching-atom-tables",
            "no-universal-subset",
            "synergy-sum-exceeds-entropy",
            "entropy-sum-rules",
        ]

    def test_a_failed_deduction_fails_both_rows_alike(self, monkeypatch):
        from infodecomp import systems
        from infodecomp.errors import ReproductionFailed

        def failing():
            raise ReproductionFailed("tables differ at {{1}}: 1 vs 0")

        monkeypatch.setattr(systems, "verify_matching_tables", failing)
        rows = {r.name: r for r in run_all_checks()}
        for name in ("matching-atom-tables", "no-universal-subset"):
            assert not rows[name].passed
            assert rows[name].detail == "tables differ at {{1}}: 1 vs 0"
        assert rows["xor-triple-contradiction"].passed
