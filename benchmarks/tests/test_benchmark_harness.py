"""Self-tests of the benchmark harness: input digests, self time, checkers,
failure counts.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/tests``.
"""

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import CheckFailed  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.SETUPS))
def test_same_seed_gives_same_input_digest(name, tmp_path):
    setup = workloads.SETUPS[name]
    first = setup(7, tmp_path).digest
    assert setup(7, tmp_path).digest == first


@pytest.mark.parametrize("name", ["deduce-random", "xor-large", "paper-cli", "sid-corpus"])
def test_another_seed_gives_other_inputs(name, tmp_path):
    setup = workloads.SETUPS[name]
    assert setup(7, tmp_path).digest != setup(8, tmp_path).digest


def test_self_time_subtracts_covered_child_time():
    # root [0, 10] has children [1, 3] and [4, 8]; the second has a child
    # [5, 6]; a sibling root [10, 12] has none.
    starts = [0.0, 1.0, 4.0, 5.0, 10.0]
    ends = [10.0, 3.0, 8.0, 6.0, 12.0]
    parents = [-1, 0, 0, 2, -1]
    assert self_times(starts, ends, parents) == [4.0, 2.0, 3.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    starts, ends, parents = [0.0, 1.0, 2.0, 9.0], [10.0, 4.0, 5.0, 12.0], [-1, 0, 0, 0]
    # children cover [1, 5] and [9, 10] of the parent: 5 units
    assert self_times(starts, ends, parents)[0] == 5.0


def _system2_atoms():
    half = [((1,), (2,), (3,)), ((1,), (2,)), ((1,), (3,)), ((2,), (3,)),
            ((1,), (2, 3)), ((2,), (1, 3)), ((3,), (1, 2)), ((1,),), ((2,),), ((3,),)]
    return {key: Fraction(1 if len(key) == 2 and len(key[1]) == 2 else 0) for key in half}


def _system2_entropies():
    # Three fair bits with x3 = x1 xor x2: H = 1 per variable, 2 per pair and
    # for all three.
    return {frozenset(s): float(min(len(s), 2))
            for s in ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3))}


def test_atom_checker_accepts_system2_and_rejects_a_perturbed_atom():
    atoms = _system2_atoms()
    workloads.check_atom_table(atoms, _system2_entropies())
    atoms[((1,), (2,))] += Fraction(1, 10**6)
    with pytest.raises(CheckFailed, match="sum rule"):
        workloads.check_atom_table(atoms, _system2_entropies())


def test_reference_entropies_match_system2():
    from infodecomp import build_system2

    d = build_system2().dist
    ref = workloads.reference_entropies(d)
    assert ref == _system2_entropies()


@dataclass
class _Interval:
    lo: Fraction | None
    hi: Fraction | None


@dataclass
class _State:
    intervals: dict
    status: str = "open"
    constraints: tuple = ()
    certificate: object = field(default=None)


def test_deduction_checker_rejects_an_interval_with_lo_above_hi():
    ok = _State({"a": _Interval(Fraction(0), Fraction(1)), "b": _Interval(None, None)})
    workloads.check_deduction(None, ok)
    bad = _State({"a": _Interval(Fraction(2), Fraction(1))})
    with pytest.raises(CheckFailed, match="lo 2 > hi 1"):
        workloads.check_deduction(None, bad)


def test_deduction_checker_substitutes_a_solved_point():
    from infodecomp import build_constraints, build_system1, propagate

    built = build_system1(with_subtargets=True)
    state = propagate(build_constraints(built.dist, built.sources, ("T1",)))
    assert state.status == "solved"
    workloads.check_deduction(None, state)
    ref = next(iter(state.intervals))
    state.intervals[ref].lo = state.intervals[ref].hi = Fraction(5)
    with pytest.raises(CheckFailed, match="violates"):
        workloads.check_deduction(None, state)


def test_verify_paper_checker_rejects_a_fail_row():
    rows = [f"PASS  check-{i}  fine" for i in range(5)]
    workloads._check_verify_paper("\n".join(rows) + "\n")
    rows[2] = "FAIL  check-2  forced bound 2 vs I 2"
    with pytest.raises(CheckFailed, match="five PASS rows"):
        workloads._check_verify_paper("\n".join(rows) + "\n")


def test_attempted_and_failed_count_distinct_ops_not_executions():
    def failing():
        raise CheckFailed("rejected")

    ops = [workloads.Op(f"op{i}", lambda: None, lambda out: None) for i in range(3)]
    ops.append(workloads.Op("bad", lambda: None, lambda out: failing()))
    prepared = workloads.Prepared([ops[:2], ops[2:]], "digest", tail_percentile=50)
    tally = run.Tally()
    run.Loop(tally).run(prepared, 0.0, min_rounds=5)
    assert tally.executions == 10
    assert (len(tally.seen), len(tally.failed), len(tally.unexpected)) == (4, 1, 1)
