"""Test-only reference: interval propagation in Fraction arithmetic over
``AtomRef``-keyed intervals, one term at a time.

This is the engine's propagation as it stood before it was compiled to
integer rows, kept so that the compiled form can be held to the same
bounds, events and certificates. It keeps its trace in a local dict and
raises a bare ``RuntimeError`` when it does not converge.
"""

from __future__ import annotations

from fractions import Fraction

from infodecomp.engine import (
    AtomRef,
    BoundEvent,
    Certificate,
    DeductionState,
    Interval,
)


def _term_bounds(
    terms: tuple[tuple[AtomRef, Fraction], ...], intervals: dict[AtomRef, Interval]
):
    """Per-term (lo, hi) contributions; None encodes the unbounded side."""
    lows, highs = [], []
    for ref, coeff in terms:
        iv = intervals[ref]
        if coeff > 0:
            lows.append(None if iv.lo is None else coeff * iv.lo)
            highs.append(None if iv.hi is None else coeff * iv.hi)
        else:
            lows.append(None if iv.hi is None else coeff * iv.hi)
            highs.append(None if iv.lo is None else coeff * iv.lo)
    return lows, highs


def _finite_sum(parts: list[Fraction | None]) -> tuple[Fraction, int]:
    total = Fraction(0)
    missing = 0
    for p in parts:
        if p is None:
            missing += 1
        else:
            total += p
    return total, missing


def _used_bounds(terms, which: str) -> tuple[tuple[AtomRef, str], ...]:
    """Which interval sides produced the min (or max) of the constraint LHS."""
    used = []
    for ref, coeff in terms:
        if which == "min":
            used.append((ref, "lo" if coeff > 0 else "hi"))
        else:
            used.append((ref, "hi" if coeff > 0 else "lo"))
    return tuple(used)


def reference_propagate(state: DeductionState, max_passes: int = 200) -> DeductionState:
    """Tighten interval bounds to a fixed point; sets the state's status."""
    intervals = state.intervals
    trace: dict[tuple[AtomRef, str], BoundEvent] = {}

    def apply_bound(
        ref: AtomRef, side: str, value: Fraction, cidx: int, used
    ) -> bool:
        iv = intervals[ref]
        current = iv.lo if side == "lo" else iv.hi
        better = current is None or (value > current if side == "lo" else value < current)
        if not better:
            return False
        if side == "lo":
            iv.lo = value
        else:
            iv.hi = value
        trace[(ref, side)] = BoundEvent(ref, side, value, cidx, used)
        return True

    for _ in range(max_passes):
        changed = False
        for cidx, c in enumerate(state.constraints):
            lows, highs = _term_bounds(c.terms, intervals)
            lo_sum, lo_missing = _finite_sum(lows)
            hi_sum, hi_missing = _finite_sum(highs)
            if lo_missing == 0 and lo_sum > c.rhs:
                state.status = "contradiction"
                state.certificate = _build_certificate(
                    state, trace, cidx, "min_exceeds_rhs", lo_sum,
                    _used_bounds(c.terms, "min"),
                )
                state.propagated = True
                return state
            if c.relation == "eq" and hi_missing == 0 and hi_sum < c.rhs:
                state.status = "contradiction"
                state.certificate = _build_certificate(
                    state, trace, cidx, "max_below_rhs", hi_sum,
                    _used_bounds(c.terms, "max"),
                )
                state.propagated = True
                return state
            for pos, (ref, coeff) in enumerate(c.terms):
                others_lo_missing = lo_missing - (1 if lows[pos] is None else 0)
                if others_lo_missing == 0:
                    others_lo = lo_sum - (lows[pos] or 0)
                    bound = (c.rhs - others_lo) / coeff
                    used = tuple(
                        u
                        for t, u in zip(c.terms, _used_bounds(c.terms, "min"))
                        if t[0] != ref
                    )
                    if apply_bound(
                        ref, "hi" if coeff > 0 else "lo", bound, cidx, used
                    ):
                        changed = True
                        lows, highs = _term_bounds(c.terms, intervals)
                        lo_sum, lo_missing = _finite_sum(lows)
                        hi_sum, hi_missing = _finite_sum(highs)
                if c.relation == "eq":
                    others_hi_missing = hi_missing - (1 if highs[pos] is None else 0)
                    if others_hi_missing == 0:
                        others_hi = hi_sum - (highs[pos] or 0)
                        bound = (c.rhs - others_hi) / coeff
                        used = tuple(
                            u
                            for t, u in zip(c.terms, _used_bounds(c.terms, "max"))
                            if t[0] != ref
                        )
                        if apply_bound(
                            ref, "lo" if coeff > 0 else "hi", bound, cidx, used
                        ):
                            changed = True
                            lows, highs = _term_bounds(c.terms, intervals)
                            lo_sum, lo_missing = _finite_sum(lows)
                            hi_sum, hi_missing = _finite_sum(highs)
        if not changed:
            break
    else:
        raise RuntimeError(f"propagation did not converge in {max_passes} passes")

    state.propagated = True
    state.status = (
        "solved" if all(iv.forced() for iv in intervals.values()) else "open"
    )
    return state


def _build_certificate(
    state: DeductionState,
    trace: dict[tuple[AtomRef, str], BoundEvent],
    violated_index: int,
    side: str,
    lhs_bound: Fraction,
    seed_bounds: tuple[tuple[AtomRef, str], ...],
) -> Certificate:
    """Justification closure of the bounds that make the constraint infeasible."""
    constraint_indices = {violated_index}
    events: list[BoundEvent] = []
    seen: set[tuple[AtomRef, str]] = set()
    queue = list(seed_bounds)
    while queue:
        key = queue.pop(0)
        if key in seen:
            continue
        seen.add(key)
        event = trace.get(key)
        if event is None:
            continue
        events.append(event)
        constraint_indices.add(event.constraint_index)
        queue.extend(event.used)
    return Certificate(
        violated_index=violated_index,
        side=side,
        lhs_bound=lhs_bound,
        rhs=state.constraints[violated_index].rhs,
        constraint_indices=tuple(sorted(constraint_indices)),
        events=tuple(events),
    )
