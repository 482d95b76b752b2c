"""The compiled integer propagation against the Fraction reference.

Every observable of a deduction must come out the same: status, every
interval (compared by ``repr``, so a Fraction cannot turn into an int),
the certificate with its events, the WESP report and, when propagation
gives up, the error text and the bounds reached.
"""

from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_propagate import reference_propagate
from infodecomp import JointDistribution, build_constraints, propagate, wesp_report
from infodecomp.engine import Constraint, DeductionState, Interval
from infodecomp.errors import PropagationDidNotConverge

S123 = (("S1",), ("S2",), ("S3",))
MODES = ("all", "singletons")
GOLDEN = Path(__file__).parent / "golden"

oracle_settings = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def grid_systems(draw):
    """Three sources and a target of 2-3 values each, 1 to 16 outcomes with
    masses on the 1/16 grid. In half of the systems the target is a function
    of the sources, which is where the structural rules fire and most
    contradictions come from."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=4, max_size=4))
    cells = list(product(*(range(k) for k in sizes)))
    if draw(st.booleans()):
        source_cells = list(product(*(range(k) for k in sizes[:3])))
        table = draw(st.lists(st.integers(0, sizes[3] - 1), min_size=len(source_cells),
                              max_size=len(source_cells)))
        cells = [(*cell, t) for cell, t in zip(source_cells, table)]
    support = draw(st.integers(1, min(16, len(cells))))
    chosen = draw(
        st.lists(st.sampled_from(cells), min_size=support, max_size=support, unique=True)
    )
    cuts = draw(
        st.lists(st.integers(1, 15), min_size=support - 1, max_size=support - 1, unique=True)
    )
    edges = [0, *sorted(cuts), 16]
    entries = [
        (cell, Fraction(edges[i + 1] - edges[i], 16)) for i, cell in enumerate(chosen)
    ]
    return JointDistribution.from_pmf(
        entries, ["S1", "S2", "S3", "T"], [list(range(k)) for k in sizes]
    )


def copy_state(built: DeductionState, constraints=None, bounds=None) -> DeductionState:
    """A fresh, unpropagated state over the same atoms."""
    bounds = bounds or {}
    return DeductionState(
        source_names=built.source_names,
        target_name=built.target_name,
        constraints=built.constraints if constraints is None else tuple(constraints),
        intervals={ref: Interval(*bounds.get(ref, (None, None))) for ref in built.intervals},
        mutual_info=dict(built.mutual_info),
        mode=built.mode,
        firings=built.firings,
    )


def outcome(run, state: DeductionState, **kwargs) -> str:
    try:
        run(state, **kwargs)
        error = None
    except RuntimeError as exc:
        error = str(exc)
    report = wesp_report(state) if state.propagated else None
    intervals = [(ref, iv.lo, iv.hi) for ref, iv in state.intervals.items()]
    return repr((error, state.status, state.propagated, intervals, state.certificate, report))


def assert_same(built: DeductionState, constraints=None, bounds=None, **kwargs) -> None:
    compiled = outcome(propagate, copy_state(built, constraints, bounds), **kwargs)
    reference = outcome(reference_propagate, copy_state(built, constraints, bounds), **kwargs)
    assert compiled == reference


@oracle_settings
@given(grid_systems())
def test_random_grid_systems_match_the_reference(d):
    for mode in MODES:
        assert_same(build_constraints(d, S123, ("T",), mutual_sums=mode))


#: Finite values off the 1/16 grid, so that the common denominator grows.
bound_values = st.one_of(
    st.none(),
    st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 3, 5, 7])),
)


@st.composite
def starting_intervals(draw):
    """A nonnegative box, lo <= hi, either end possibly open."""
    lo, width = draw(bound_values), draw(bound_values)
    hi = None if width is None else (lo or 0) + width
    return lo, hi


@oracle_settings
@given(grid_systems(), st.sampled_from(MODES), st.data())
def test_subsets_and_finite_starting_bounds_match_the_reference(d, mode, data):
    built = build_constraints(d, S123, ("T",), mutual_sums=mode)
    keep = data.draw(st.lists(st.booleans(), min_size=len(built.constraints),
                              max_size=len(built.constraints)))
    constraints = [c for c, kept in zip(built.constraints, keep) if kept]
    bounds = {ref: data.draw(starting_intervals()) for ref in built.intervals}
    assert_same(built, constraints, bounds)


class TestHandBuiltStates:
    def test_reference_systems(self, system1, system1_subtargets, system2):
        assert_same(build_constraints(system2.dist, S123, ("T",)))
        assert_same(build_constraints(system2.dist, S123, ("T",), mutual_sums="singletons"))
        assert_same(build_constraints(system1.dist, system1.sources, ("T",)))
        for part in ("T1", "T2", "T3"):
            assert_same(build_constraints(system1_subtargets.dist, S123, (part,)))

    def test_subset_of_the_constraints(self, system2):
        built = build_constraints(system2.dist, S123, ("T",))
        assert_same(built, [c for c in built.constraints if c.kind != "CrossScale"])
        assert_same(built, built.constraints[::2])
        assert_same(built, built.constraints[::-1])

    def test_finite_starting_bounds(self, system2):
        built = build_constraints(system2.dist, S123, ("T",), mutual_sums="singletons")
        bounds = {
            ref: (Fraction(-1, 3), Fraction(7, 5)) if pos % 2 else (None, Fraction(5, 2))
            for pos, ref in enumerate(built.intervals)
        }
        assert_same(built, bounds=bounds)

    def test_non_convergence_leaves_the_same_bounds(self, system1):
        built = build_constraints(system1.dist, system1.sources, ("T",))
        assert_same(built, max_passes=1)


def test_coefficient_other_than_one_is_refused(system2):
    built = build_constraints(system2.dist, S123, ("T",))
    ref = next(iter(built.intervals))
    doubled = Constraint("Custom", ((ref, Fraction(2)),), "le", Fraction(1), "2x <= 1")
    state = copy_state(built, (*built.constraints, doubled))
    with pytest.raises(ValueError, match="coefficient 2"):
        propagate(state)
    # refused before anything moved
    assert all(iv.lo is None and iv.hi is None for iv in state.intervals.values())
    assert not state.propagated


def test_non_convergence_is_a_library_error(system1):
    state = build_constraints(system1.dist, system1.sources, ("T",))
    with pytest.raises(PropagationDidNotConverge, match="did not converge in 1 passes") as info:
        propagate(state, max_passes=1)
    assert isinstance(info.value, RuntimeError)
    # the bounds of the one pass are written back
    assert any(iv.lo is not None for iv in state.intervals.values())
    assert not state.propagated


def test_pid_deduce_certificate_output_is_unchanged(capsys):
    from infodecomp.cli import main

    assert main(["pid-deduce", "--builtin", "system2", "--certificate"]) == 0
    expected = (GOLDEN / "pid_deduce_system2_certificate.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
