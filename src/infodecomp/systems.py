"""Built-in reference systems and the end-to-end verification suite.

Two XOR-built systems anchor the whole library:

* ``system1`` — six independent fair bits arranged in three XOR triples,
  sources bundling one bit of each triple, target taking one bit per triple.
  Every pair of sources determines the target; deduction assigns each
  two-versus-one atom a full bit and everything else zero.
* ``system2`` — one XOR triple with the target equal to all three bits.
  The same deduction chain forces per-source atom sums of one bit each,
  which pushes the full atom sum to three bits against a total information
  of two: the whole is less than the sum of its parts, by exactly one bit.

The two systems carry identical full-scope atom tables yet different total
information, so no fixed antichain subset can sum to the total on both; the
scan below decides all 2**18 subsets and confirms none works.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm

from .dist import CircuitSpec, JointDistribution, from_circuit
from .engine import (
    AtomRef,
    DeductionState,
    WespReport,
    assignment_violations,
    build_constraints,
    propagate,
    replay_certificate,
    wesp_report,
)
from .errors import KeyMismatch, ReproductionFailed
from .lattice import Antichain, enumerate_full
from .sid import SynergySumResult, check_sum_rules, synergy_sum_check

SourceGroups = tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class BuiltSystem:
    dist: JointDistribution
    sources: SourceGroups
    target: tuple[str, ...]


def build_system2() -> BuiltSystem:
    """One XOR triple; target equal to the whole triple. Four outcomes."""
    spec = CircuitSpec.create(
        free_bits=["x1", "x2"],
        xor_defs={"x3": ["x1", "x2"]},
        groupings={"S1": ["x1"], "S2": ["x2"], "S3": ["x3"]},
        target=["x1", "x2", "x3"],
    )
    return BuiltSystem(from_circuit(spec), (("S1",), ("S2",), ("S3",)), ("T",))


def build_system1(with_subtargets: bool = False) -> BuiltSystem:
    """Three XOR triples; sources take one bit per triple, and so does the
    target. 64 outcomes. With ``with_subtargets`` the three target bits are
    also exposed as variables T1, T2, T3 for per-bit deduction runs."""
    groupings = {
        "S1": ["x1", "x4", "x7"],
        "S2": ["x2", "x5", "x8"],
        "S3": ["x3", "x6", "x9"],
    }
    if with_subtargets:
        groupings.update({"T1": ["x1"], "T2": ["x5"], "T3": ["x9"]})
    spec = CircuitSpec.create(
        free_bits=["x1", "x2", "x4", "x5", "x7", "x8"],
        xor_defs={"x3": ["x1", "x2"], "x6": ["x4", "x5"], "x9": ["x7", "x8"]},
        groupings=groupings,
        target=["x1", "x5", "x9"],
    )
    return BuiltSystem(from_circuit(spec), (("S1",), ("S2",), ("S3",)), ("T",))


BUILTINS = {"system1": build_system1, "system2": build_system2}


def get_builtin(name: str) -> BuiltSystem:
    try:
        return BUILTINS[name]()
    except KeyError:
        raise KeyError(f"unknown builtin {name!r}; choose from {sorted(BUILTINS)}")


@dataclass(frozen=True)
class AtomAssignment:
    """A point value for every full-scope antichain atom."""

    label: str
    values: tuple[tuple[Antichain, Fraction], ...]

    def as_dict(self) -> dict[Antichain, Fraction]:
        return dict(self.values)


def _full_lattice_order() -> tuple[Antichain, ...]:
    return enumerate_full(3).nodes


def golden_assignment(label: str) -> AtomAssignment:
    """The hand-checkable expected table: one bit on each two-versus-one
    atom, zero elsewhere. Used as a cross-check against deduced tables."""
    ones = {
        Antichain.of([(1,), (2, 3)]),
        Antichain.of([(2,), (1, 3)]),
        Antichain.of([(3,), (1, 2)]),
    }
    return AtomAssignment(
        label,
        tuple(
            (a, Fraction(1) if a in ones else Fraction(0))
            for a in _full_lattice_order()
        ),
    )


# --- deduction pipelines ------------------------------------------------------


@dataclass(frozen=True)
class SystemDeduction:
    assignment: AtomAssignment
    total_information: Fraction


def derive_system1_table() -> SystemDeduction:
    """Deduce the full-scope table of system1 through its three target bits.

    The target splits into three mutually independent bits; each bit's
    system is fully determined by the sum rules, and independence lets the
    three solved tables add. Independence is checked exactly before summing.
    """
    built = build_system1(with_subtargets=True)
    d = built.dist
    parts = ["T1", "T2", "T3"]
    h_parts = [d.entropy_exact(p) for p in parts]
    h_joint = d.entropy_exact(parts)
    if None in h_parts or h_joint is None or sum(h_parts) != h_joint:
        raise ReproductionFailed(
            "system1 target bits are not mutually independent; cannot sum tables"
        )
    totals: dict[Antichain, Fraction] = {a: Fraction(0) for a in _full_lattice_order()}
    for part in parts:
        state = propagate(build_constraints(d, built.sources, (part,)))
        if state.status != "solved":
            raise ReproductionFailed(
                f"deduction for target bit {part} ended {state.status}, expected solved"
            )
        for antichain, value in state.full_scope_table().items():
            totals[antichain] += value
    total_i = d.mutual_information_exact(
        [n for g in built.sources for n in g], built.target
    )
    assignment = AtomAssignment("system1", tuple(totals.items()))
    return SystemDeduction(assignment, total_i)


def derive_system2_table() -> SystemDeduction:
    """Deduce the full-scope table of system2 under single-source anchoring.

    Anchoring every subset sum is contradictory here (that is the point of
    the system), so the multi-source sums are left unanchored. One atom —
    the all-pairs antichain {{12}{13}{23}} — is untouched by any remaining
    rule; it is completed at its lower bound and the completed assignment is
    re-verified against every constraint by substitution.
    """
    built = build_system2()
    state = propagate(
        build_constraints(built.dist, built.sources, built.target, mutual_sums="singletons")
    )
    if state.status == "contradiction":
        raise ReproductionFailed(
            "single-source anchoring unexpectedly contradictory on system2"
        )
    completed: dict[AtomRef, Fraction] = {}
    for ref, interval in state.intervals.items():
        completed[ref] = interval.lo if interval.lo is not None else Fraction(0)
    violations = assignment_violations(state, completed)
    if violations:
        first = violations[0]
        raise ReproductionFailed(
            f"completed system2 assignment violates: {first[0].provenance} "
            f"(lhs {first[1]}, rhs {first[0].rhs})"
        )
    table = {
        ref.antichain: completed[ref]
        for ref in state.full_scope_refs()
    }
    total_i = built.dist.mutual_information_exact(
        [n for g in built.sources for n in g], built.target
    )
    assignment = AtomAssignment(
        "system2", tuple((a, table[a]) for a in _full_lattice_order())
    )
    return SystemDeduction(assignment, total_i)


# --- contradiction reproduction -----------------------------------------------


@dataclass(frozen=True)
class ContradictionReport:
    state: DeductionState
    wesp: WespReport
    pair_shared_atoms: tuple[Fraction, ...]
    per_source_sums: tuple[Fraction, ...]
    replay_ok: bool


def verify_contradiction_system2(
    order: tuple[int, int, int] = (1, 2, 3)
) -> ContradictionReport:
    """Run the full constraint set on system2 and check the known chain:
    pair shared atoms zero, all-way redundancy zero, per-source atom sums of
    one bit each, and a forced lower bound of three bits against two.

    ``order`` permutes the source groups; the report must not depend on it.
    """
    built = build_system2()
    sources = tuple(built.sources[i - 1] for i in order)
    state = propagate(build_constraints(built.dist, sources, built.target))
    if state.status != "contradiction":
        raise ReproductionFailed(
            f"expected a contradiction on system2, got status {state.status!r}"
        )
    pair_shared = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        value = state.forced_value((i, j), Antichain.of([(i,), (j,)]))
        if value != 0:
            raise ReproductionFailed(
                f"pair shared atom of sources {i},{j} is {value}, expected 0"
            )
        pair_shared.append(value)
    all_way = state.forced_value((1, 2, 3), Antichain.of([(1,), (2,), (3,)]))
    if all_way != 0:
        raise ReproductionFailed(f"all-way redundancy is {all_way}, expected 0")
    per_source = []
    for i in (1, 2, 3):
        j, k = (x for x in (1, 2, 3) if x != i)
        single = state.forced_value((1, 2, 3), Antichain.of([(i,)]))
        synergy = state.forced_value((1, 2, 3), Antichain.of([(i,), (j, k)]))
        if single is None or synergy is None or single + synergy != 1:
            raise ReproductionFailed(
                f"per-source atom sum for source {i} is "
                f"{single} + {synergy}, expected 1"
            )
        per_source.append(single + synergy)
    report = wesp_report(state)
    if report.atom_lower_bound != 3 or report.mutual_information != 2:
        raise ReproductionFailed(
            f"forced bound {report.atom_lower_bound} vs I {report.mutual_information},"
            " expected 3 vs 2"
        )
    if report.gap != 1:
        raise ReproductionFailed(f"gap {report.gap}, expected exactly 1")
    replay_ok = replay_certificate(state)
    if not replay_ok:
        raise ReproductionFailed("contradiction certificate did not replay")
    return ContradictionReport(
        state, report, tuple(pair_shared), tuple(per_source), replay_ok
    )


# --- matching tables ------------------------------------------------------------


@dataclass(frozen=True)
class TableMatchReport:
    system1: SystemDeduction
    system2: SystemDeduction
    tables_equal: bool
    matches_golden: bool


def verify_matching_tables() -> TableMatchReport:
    """Deduce both systems' tables; they must agree atom for atom under the
    index-preserving bijection while the total informations differ (3 vs 2)."""
    one = derive_system1_table()
    two = derive_system2_table()
    t1, t2 = one.assignment.as_dict(), two.assignment.as_dict()
    if set(t1) != set(t2):
        raise KeyMismatch("the two deduced tables are keyed by different antichains")
    tables_equal = all(t1[a] == t2[a] for a in t1)
    golden = golden_assignment("expected").as_dict()
    matches_golden = t1 == golden and t2 == golden
    if not tables_equal:
        diff = next(a for a in t1 if t1[a] != t2[a])
        raise ReproductionFailed(
            f"tables differ at {diff}: {t1[diff]} vs {t2[diff]}"
        )
    if not matches_golden:
        diff = next(a for a in t1 if t1[a] != golden[a])
        raise ReproductionFailed(
            f"deduced table differs from the expected one at {diff}"
        )
    if not (one.total_information == 3 and two.total_information == 2):
        raise ReproductionFailed(
            f"total informations {one.total_information}, {two.total_information},"
            " expected 3 and 2"
        )
    return TableMatchReport(one, two, tables_equal, matches_golden)


# --- exhaustive subset scan -----------------------------------------------------


@dataclass(frozen=True)
class SubsetScanResult:
    subsets_checked: int
    atom_order: tuple[Antichain, ...]
    valid_masks: tuple[int, ...]
    elapsed_seconds: float

    def decode(self, mask: int) -> tuple[Antichain, ...]:
        return tuple(
            a for bit, a in enumerate(self.atom_order) if mask >> bit & 1
        )


def scan_universal_subsets(
    a1: AtomAssignment, a2: AtomAssignment, i1: Fraction, i2: Fraction
) -> SubsetScanResult:
    """Find every subset of the 18 full-scope atoms that sums to the total
    information of both systems simultaneously.

    Values are scaled to a common integer grid, so the sums are exact. The
    search meets in the middle: the atoms split into two halves of 9, the
    512 (sum on system1, sum on system2) pairs of the right half are indexed
    by pair, and each of the 512 left subsets looks up the pair it lacks.
    Every one of the 2**18 subsets is decided, and the valid ones come back
    as ascending bitmasks over ``atom_order``.
    """
    order = _full_lattice_order()
    d1, d2 = a1.as_dict(), a2.as_dict()
    if set(d1) != set(order) or set(d2) != set(order):
        raise KeyMismatch("assignments must be keyed by the 18 full-scope antichains")
    scale = lcm(
        *(v.denominator for v in d1.values()),
        *(v.denominator for v in d2.values()),
        i1.denominator,
        i2.denominator,
    )
    v1 = [int(d1[a] * scale) for a in order]
    v2 = [int(d2[a] * scale) for a in order]
    t1, t2 = int(i1 * scale), int(i2 * scale)

    started = time.perf_counter()
    n = len(order)
    half = n // 2
    right: dict[tuple[int, int], list[int]] = {}
    for mask, pair in enumerate(_subset_sums(v1[half:], v2[half:])):
        right.setdefault(pair, []).append(mask)
    valid = [
        left | high << half
        for left, (s1, s2) in enumerate(_subset_sums(v1[:half], v2[:half]))
        for high in right.get((t1 - s1, t2 - s2), ())
    ]
    elapsed = time.perf_counter() - started
    return SubsetScanResult(1 << n, order, tuple(sorted(valid)), elapsed)


def _subset_sums(v1: list[int], v2: list[int]) -> list[tuple[int, int]]:
    """The (sum of v1, sum of v2) pair of every subset, indexed by its mask."""
    sums = [(0, 0)]
    for a, b in zip(v1, v2):
        sums += [(s1 + a, s2 + b) for s1, s2 in sums]
    return sums


def verify_no_universal_subset() -> SubsetScanResult:
    """End-to-end statement: scan the deduced (not hard-coded) tables."""
    return _scan_matched_tables(verify_matching_tables())


def _scan_matched_tables(match: TableMatchReport) -> SubsetScanResult:
    result = scan_universal_subsets(
        match.system1.assignment,
        match.system2.assignment,
        match.system1.total_information,
        match.system2.total_information,
    )
    if result.valid_masks:
        raise ReproductionFailed(
            f"{len(result.valid_masks)} subsets satisfy both systems; expected none"
        )
    return result


def verify_synergy_excess() -> SynergySumResult:
    """The three synergy atoms of system2's sources sum to three bits against
    a joint entropy of two."""
    built = build_system2()
    result = synergy_sum_check(built.dist, *built.sources)
    if result.synergy_sum != 3 or result.joint_entropy != 2 or not result.violates_wesp:
        raise ReproductionFailed(
            f"synergy sum {result.synergy_sum} vs entropy {result.joint_entropy}, "
            "expected 3 vs 2 with violation"
        )
    return result


# --- aggregated check table -----------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_all_checks() -> list[CheckResult]:
    """Every built-in verification, one pass/fail row each."""
    results: list[CheckResult] = []

    # The matching row and the scan row rest on one deduction of both systems.
    # A failed deduction is not cached: the scan row repeats it and fails with
    # the same message.
    @cache
    def matched_tables() -> TableMatchReport:
        return verify_matching_tables()

    def attempt(name: str, thunk):
        try:
            detail = thunk()
            results.append(CheckResult(name, True, detail))
        except (ReproductionFailed, KeyMismatch) as exc:
            results.append(CheckResult(name, False, str(exc)))

    def contradiction():
        report = verify_contradiction_system2()
        return (
            f"forced bound {report.wesp.atom_lower_bound} > I = "
            f"{report.wesp.mutual_information}, gap {report.wesp.gap}"
        )

    def matching():
        match = matched_tables()
        return (
            "tables identical, two-versus-one atoms = 1, rest 0; "
            f"I = {match.system1.total_information} vs {match.system2.total_information}"
        )

    def scan():
        result = _scan_matched_tables(matched_tables())
        return f"0 of {result.subsets_checked} subsets work"

    def synergy():
        result = verify_synergy_excess()
        return (
            f"synergy sum {result.synergy_sum} > joint entropy "
            f"{result.joint_entropy}"
        )

    def sum_rules():
        built = build_system2()
        report = check_sum_rules(built.dist, *built.sources)
        sigma = report.sigma
        if sigma != 3:
            raise ReproductionFailed(f"atom total {sigma}, expected 3")
        return f"atom total {sigma}, every decomposition rule exact"

    attempt("xor-triple-contradiction", contradiction)
    attempt("matching-atom-tables", matching)
    attempt("no-universal-subset", scan)
    attempt("synergy-sum-exceeds-entropy", synergy)
    attempt("entropy-sum-rules", sum_rules)
    return results
