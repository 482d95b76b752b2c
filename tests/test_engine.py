"""Deduction-engine behavior: constraint generation, propagation, certificates."""

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from infodecomp import (
    JointDistribution,
    build_constraints,
    propagate,
    replay_certificate,
    wesp_report,
)
from infodecomp.engine import assignment_violations
from infodecomp.errors import EngineError, LatticeError, StateStillOpen, UnsupportedArity
from infodecomp.lattice import Antichain, parse_antichain
from conftest import grid_systems

BIT = [0, 1]
S123 = (("S1",), ("S2",), ("S3",))
GOLDEN = Path(__file__).parent / "golden"


def constant_target_xor():
    entries = [((a, b, a ^ b, 0), Fraction(1, 4)) for a, b in product(BIT, BIT)]
    return JointDistribution.from_pmf(
        entries, ["S1", "S2", "S3", "T"], [BIT, BIT, BIT, [0]]
    )


def coins_with_constant_third():
    entries = [((a, b, 0, (a, b)), Fraction(1, 4)) for a, b in product(BIT, BIT)]
    alphabets = [BIT, BIT, [0], [(0, 0), (0, 1), (1, 0), (1, 1)]]
    return JointDistribution.from_pmf(entries, ["S1", "S2", "S3", "T"], alphabets)


class TestBuildConstraints:
    def test_thirty_three_atom_variables(self, system2):
        state = build_constraints(system2.dist, S123, ("T",))
        assert len(state.intervals) == 33
        scopes = sorted({ref.scope for ref in state.intervals})
        assert scopes == [
            (1,), (1, 2), (1, 2, 3), (1, 3), (2,), (2, 3), (3,)
        ]

    def test_constraint_counts_on_xor_triple(self, system2):
        state = build_constraints(system2.dist, S123, ("T",))
        counts = state.constraint_counts()
        assert counts["Nonnegativity"] == 33
        assert counts["SelfRedundancy"] == 3
        assert counts["MutualSum"] == 16
        assert counts["CrossScale"] == 15
        assert counts["Monotonicity"] == 9
        assert counts["IndependentIdentityZero"] == 3  # every pair fires
        assert counts["DeterminismZero"] == 15  # three firings, five atoms each

    def test_measured_information_xor_triple(self, system2):
        state = build_constraints(system2.dist, S123, ("T",))
        assert [state.mutual_info[(i,)] for i in (1, 2, 3)] == [1, 1, 1]
        assert [state.mutual_info[s] for s in ((1, 2), (1, 3), (2, 3))] == [2, 2, 2]
        assert state.mutual_info[(1, 2, 3)] == 2

    def test_measured_information_triple_xor_system(self, system1):
        state = build_constraints(system1.dist, system1.sources, ("T",))
        assert [state.mutual_info[(i,)] for i in (1, 2, 3)] == [1, 1, 1]
        # every source pair determines the target outright
        assert [state.mutual_info[s] for s in ((1, 2), (1, 3), (2, 3))] == [3, 3, 3]
        assert state.mutual_info[(1, 2, 3)] == 3

    def test_singleton_anchoring_drops_multisource_sums(self, system2):
        state = build_constraints(
            system2.dist, S123, ("T",), mutual_sums="singletons"
        )
        assert state.constraint_counts()["MutualSum"] == 9
        for c in state.constraints:
            if c.kind == "MutualSum":
                assert len(c.terms) in (2, 5)  # down-sets of singletons only

    def test_rejects_wrong_arity_and_bad_mode(self, system2):
        with pytest.raises(UnsupportedArity):
            build_constraints(system2.dist, (("S1",), ("S2",)), ("T",))
        with pytest.raises(ValueError):
            build_constraints(system2.dist, S123, ("T",), mutual_sums="some")

    def test_each_marginal_is_projected_once(self, projections):
        # Masses on a 1/12 grid, so that most information values are floats.
        d = grid_systems(count=1, seed=9, denominator=12)[0]
        assert d.mutual_information_exact((0, 1, 2), 3) is None
        projections.clear()
        build_constraints(d, ((0,), (1,), (2,)), (3,))
        # Seven source unions, the target, and the target with each union.
        assert len(projections) == len(set(projections)) == 15

    def test_wrong_arity_is_caught_as_engine_and_lattice_error(self, system2):
        for base in (EngineError, LatticeError):
            with pytest.raises(base, match="exactly 3 sources"):
                build_constraints(system2.dist, (("S1",), ("S2",)), ("T",))


@pytest.fixture(scope="module")
def state(system2):
    return propagate(build_constraints(system2.dist, S123, ("T",)))


class TestXorTripleContradiction:
    def test_status(self, state):
        assert state.status == "contradiction"
        assert state.certificate is not None

    def test_pair_shared_atoms_forced_zero(self, state):
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert state.forced_value((i, j), Antichain.of([(i,), (j,)])) == 0

    def test_all_way_redundancy_and_pair_atoms_zero(self, state):
        full = (1, 2, 3)
        assert state.forced_value(full, parse_antichain("{{1}{2}{3}}")) == 0
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert state.forced_value(full, Antichain.of([(i,), (j,)])) == 0

    def test_per_source_split_sums_to_one(self, state):
        full = (1, 2, 3)
        for i in (1, 2, 3):
            j, k = (x for x in (1, 2, 3) if x != i)
            single = state.forced_value(full, Antichain.of([(i,)]))
            synergy = state.forced_value(full, Antichain.of([(i,), (j, k)]))
            assert single == 0
            assert synergy == 1

    def test_pair_scale_exclusive_atoms_carry_one_bit(self, state):
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert state.forced_value((i, j), Antichain.of([(i,)])) == 1
            assert state.forced_value((i, j), Antichain.of([(j,)])) == 1

    def test_wesp_gap_is_exactly_one_bit(self, state):
        report = wesp_report(state)
        assert report.atom_lower_bound == 3
        assert report.mutual_information == 2
        assert report.gap == 1
        assert report.violated

    def test_certificate_replays(self, state):
        assert replay_certificate(state)
        # the replayed subset is a strict part of the whole system
        assert len(state.certificate.constraint_indices) < len(state.constraints)

    def test_certificate_cites_the_full_sum_rule(self, state):
        violated = state.constraints[state.certificate.violated_index]
        assert violated.kind == "MutualSum"
        assert len(violated.terms) == 18

    def test_cross_scale_rules_are_load_bearing(self, system2):
        # Without the cross-scale identities the same facts admit a feasible
        # assignment: the pair-scale zeros never reach the full scope.
        from infodecomp.engine import DeductionState, Interval

        built = build_constraints(system2.dist, S123, ("T",))
        state = DeductionState(
            source_names=built.source_names,
            target_name=built.target_name,
            constraints=tuple(
                c for c in built.constraints if c.kind != "CrossScale"
            ),
            intervals={ref: Interval() for ref in built.intervals},
            mutual_info=dict(built.mutual_info),
            mode=built.mode,
            firings=built.firings,
        )
        propagate(state)
        assert state.status == "open"


class TestTripleXorSystem:
    def test_direct_run_is_underdetermined_but_consistent(self, system1):
        state = propagate(build_constraints(system1.dist, system1.sources, ("T",)))
        assert state.status == "open"
        report = wesp_report(state)
        assert not report.violated
        assert report.gap == 0

    def test_each_target_bit_system_solves_completely(self, system1_subtargets):
        d = system1_subtargets.dist
        expected_one = {
            "T1": parse_antichain("{{1}{23}}"),
            "T2": parse_antichain("{{2}{13}}"),
            "T3": parse_antichain("{{3}{12}}"),
        }
        for part, one_atom in expected_one.items():
            state = propagate(build_constraints(d, S123, (part,)))
            assert state.status == "solved"
            table = state.full_scope_table()
            assert table[one_atom] == 1
            assert all(v == 0 for a, v in table.items() if a != one_atom)
            # solved assignments substitute back into every constraint exactly
            values = {ref: iv.lo for ref, iv in state.intervals.items()}
            assert assignment_violations(state, values) == ()

    def test_first_target_bit_pair_scale_values(self, system1_subtargets):
        state = propagate(
            build_constraints(system1_subtargets.dist, S123, ("T1",))
        )
        # the pair of the two non-carrying sources supplies the bit jointly
        assert state.forced_value((2, 3), parse_antichain("{{23}}")) == 1
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert state.forced_value((i, j), Antichain.of([(i,), (j,)])) == 0

    def test_determinism_zeros_for_first_target_bit(self, system1_subtargets):
        state = build_constraints(system1_subtargets.dist, S123, ("T1",))
        zeroed = {
            str(c.terms[0][0].antichain)
            for c in state.constraints
            if c.kind == "DeterminismZero" and "sources 2,3" in c.provenance
        }
        assert zeroed == {"{{1}}", "{{12}}", "{{13}}", "{{123}}", "{{12}{13}}"}


class TestSingletonAnchoring:
    def test_xor_triple_is_open_with_one_loose_atom(self, system2):
        state = propagate(
            build_constraints(system2.dist, S123, ("T",), mutual_sums="singletons")
        )
        assert state.status == "open"
        table = state.full_scope_table()
        loose = [a for a, v in table.items() if v is None]
        assert loose == [parse_antichain("{{12}{13}{23}}")]
        assert table[parse_antichain("{{1}{23}}")] == 1

    def test_lower_bound_completion_satisfies_every_constraint(self, system2):
        state = propagate(
            build_constraints(system2.dist, S123, ("T",), mutual_sums="singletons")
        )
        completed = {
            ref: iv.lo if iv.lo is not None else Fraction(0)
            for ref, iv in state.intervals.items()
        }
        assert assignment_violations(state, completed) == ()


class TestDegenerateTargets:
    def test_constant_target_solves_to_all_zero(self):
        state = propagate(build_constraints(constant_target_xor(), S123, ("T",)))
        assert state.status == "solved"
        assert all(iv.lo == 0 == iv.hi for iv in state.intervals.values())
        assert not any("independent-identity" in f for f in state.firings)

    def test_two_coins_and_constant_third(self):
        state = propagate(build_constraints(coins_with_constant_third(), S123, ("T",)))
        # the pair scope of the two live coins is fully pinned
        assert state.forced_value((1, 2), parse_antichain("{{1}{2}}")) == 0
        assert state.forced_value((1, 2), parse_antichain("{{1}}")) == 1
        assert state.forced_value((1, 2), parse_antichain("{{2}}")) == 1
        assert state.forced_value((1, 2), parse_antichain("{{12}}")) == 0
        report = wesp_report(state)
        assert not report.violated


class TestReports:
    def test_wesp_before_propagation_is_refused(self, system2):
        state = build_constraints(system2.dist, S123, ("T",))
        with pytest.raises(StateStillOpen):
            wesp_report(state)

    def test_firings_are_recorded(self, system2):
        state = build_constraints(system2.dist, S123, ("T",))
        independent = [f for f in state.firings if "independent-identity" in f]
        determinism = [f for f in state.firings if "determinism" in f]
        assert len(independent) == 3
        assert len(determinism) == 3


def constraint_rows_text(system1_subtargets, system2) -> str:
    """Every row of five reference systems, one line each: kind, relation,
    rhs, signed terms in order, provenance."""
    systems = [
        (f"system2 {mode}", system2.dist, "T", mode) for mode in ("all", "singletons")
    ] + [
        (f"system1 {part} all", system1_subtargets.dist, part, "all")
        for part in ("T1", "T2", "T3")
    ]
    lines = []
    for label, d, target, mode in systems:
        lines.append(f"# {label}")
        for c in build_constraints(d, S123, (target,), mutual_sums=mode).constraints:
            terms = " ".join(
                ("+" if coeff == 1 else "-" if coeff == -1 else f"({coeff})") + str(ref)
                for ref, coeff in c.terms
            )
            lines.append(f"{c.kind} {c.relation} {c.rhs} [{terms}] {c.provenance}")
    return "\n".join(lines) + "\n"


def test_constraint_rows_are_unchanged(system1_subtargets, system2):
    # Row order, term order and provenance decide which row a contradiction
    # trips at and what its certificate cites.
    expected = (GOLDEN / "constraint_rows.txt").read_text(encoding="utf-8")
    assert constraint_rows_text(system1_subtargets, system2) == expected
