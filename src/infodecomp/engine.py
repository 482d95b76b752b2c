"""Axiom-driven deduction over partial-information atoms.

For a three-source system with a target, every subsystem scope (the seven
nonempty subsets of the sources) carries one atom variable per antichain of
that scope — 33 variables in all. The engine turns measured information
quantities and structural facts about the distribution into linear
constraints over those variables, then tightens exact rational interval
bounds to a fixed point. Outcomes: every variable forced (solved), some
intervals still wide (open), or a constraint that cannot be met
(contradiction, with a replayable certificate).

Constraint kinds:

* ``Nonnegativity`` — every atom is >= 0. Asserted for all atoms, not only
  redundancy atoms: the deduction chains squeeze pair and synergy atoms
  against zero as well, which is exactly the effective assumption the
  squeeze arguments rely on; every certificate that uses it says so.
* ``SelfRedundancy`` — the single atom of a single-source scope equals that
  source's information about the target.
* ``MutualSum`` — within a scope B, the atoms dominated by a subset A sum
  to I(A;T). With ``mutual_sums="singletons"`` only |A| = 1 instances are
  anchored; consistency across scopes then comes from ``CrossScale`` alone,
  which is the hypothesis set under which the two reference systems receive
  identical atom tables.
* ``CrossScale`` — refinement: an atom alpha of a scope A is the sum of the
  atoms of A plus one source whose elements inside A form alpha.
* ``IndependentIdentityZero`` — exactly-independent source pair whose join
  is informationally equivalent to the target has zero pair redundancy.
  Fires only on the exact two-sided support condition; firings are recorded.
* ``DeterminismZero`` — if two sources determine both the target and the
  third source, every full-scope atom built without any piece of those two
  sources is zero.
* ``Monotonicity`` — redundancy atoms cannot grow when sources are added;
  generated only for the redundancy-atom chains the deductions use.

Source-permutation symmetry generates no constraints: atoms are indexed by
antichains, which are order-free already (flagged here rather than silently
dropped).

Interval arithmetic is exact. Measured information values enter as exact
rationals where the distribution's dyadic structure allows, and as
exactly-embedded floats (snapped to integers within tolerance) otherwise.
``propagate`` compiles the rows once per call: atoms become their positions,
and every right-hand side and bound becomes an integer over one common
denominator, so the fixed point runs on ints; results come back as
Fractions. The rows come from one ordered table of templates, built once per
process; a measurement fills in right-hand sides and drops unfired rows.

A ``DeductionState`` is single-owner mutable while propagating; once
propagation finishes it should be treated as read-only. Independent systems
may be deduced in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import lcm
from typing import Iterable, Sequence

from .dist import DEFAULT_TOLERANCE, GroupLike, JointDistribution, Measurement
from .errors import PropagationDidNotConverge, StateStillOpen, UnsupportedArity
from .lattice import Antichain, enumerate_full, leq

Scope = tuple[int, ...]


@dataclass(frozen=True)
class AtomRef:
    """One partial-information atom: an antichain within a subsystem scope."""

    scope: Scope
    antichain: Antichain

    def __str__(self) -> str:
        scope = "".join(str(i) for i in self.scope)
        return f"pi[{scope}]{self.antichain}"


@dataclass(frozen=True)
class Constraint:
    """Linear constraint sum(coeff * atom) relation rhs.

    Every coefficient is +1 or -1; ``propagate`` refuses any other.
    """

    kind: str
    terms: tuple[tuple[AtomRef, Fraction], ...]
    relation: str  # "eq" or "le"
    rhs: Fraction
    provenance: str


@dataclass
class Interval:
    """Exact bound pair; None encodes the corresponding infinity."""

    lo: Fraction | None = None
    hi: Fraction | None = None

    def forced(self) -> bool:
        return self.lo is not None and self.lo == self.hi


@dataclass(frozen=True)
class BoundEvent:
    ref: AtomRef
    side: str  # "lo" or "hi"
    value: Fraction
    constraint_index: int
    used: tuple[tuple[AtomRef, str], ...]


@dataclass(frozen=True)
class Certificate:
    """Why a constraint cannot be satisfied, as a replayable constraint chain."""

    violated_index: int
    side: str  # "min_exceeds_rhs" or "max_below_rhs"
    lhs_bound: Fraction
    rhs: Fraction
    constraint_indices: tuple[int, ...]
    events: tuple[BoundEvent, ...]


@dataclass
class DeductionState:
    source_names: tuple[str, ...]
    target_name: str
    constraints: tuple[Constraint, ...]
    intervals: dict[AtomRef, Interval]
    mutual_info: dict[Scope, Fraction]
    mode: str  # "all" or "singletons"
    firings: tuple[str, ...]  # which structural rules fired, human readable
    status: str = "open"
    certificate: Certificate | None = None
    propagated: bool = field(default=False)
    # (atom position, side) -> (value * scale, scale, row, "min" or "max") of
    # the last bound that improved that side; certificates are built from it.
    _trace: dict = field(default_factory=dict, repr=False)

    def interval(self, scope: Iterable[int], antichain: Antichain) -> Interval:
        return self.intervals[AtomRef(tuple(sorted(scope)), antichain)]

    def forced_value(
        self, scope: Iterable[int], antichain: Antichain
    ) -> Fraction | None:
        iv = self.interval(scope, antichain)
        return iv.lo if iv.forced() else None

    def full_scope_refs(self) -> tuple[AtomRef, ...]:
        full = tuple(sorted({i for ref in self.intervals for i in ref.scope}))
        return tuple(ref for ref in self.intervals if ref.scope == full)

    def full_scope_table(self) -> dict[Antichain, Fraction | None]:
        return {
            ref.antichain: self.intervals[ref].lo
            if self.intervals[ref].forced()
            else None
            for ref in self.full_scope_refs()
        }

    def constraint_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for c in self.constraints:
            counts[c.kind] = counts.get(c.kind, 0) + 1
        return counts


@dataclass(frozen=True)
class WespReport:
    """Comparison of total information against the forced atom lower bound."""

    mutual_information: Fraction
    atom_lower_bound: Fraction
    gap: Fraction
    violated: bool
    certificate: Certificate | None


def _snap(value: Fraction | float, tol: float) -> Fraction:
    """An exact value as it is; a float as the nearest integer within `tol`,
    else as the rational it stores."""
    if isinstance(value, Fraction):
        return value
    nearest = round(value)
    if abs(value - nearest) <= tol:
        return Fraction(nearest)
    return Fraction(value)


def _relabel_nodes(n: int, scope: Scope) -> tuple[Antichain, ...]:
    mapping = {i + 1: scope[i] for i in range(n)}
    return tuple(node.relabel(mapping) for node in enumerate_full(n).nodes)


def _scope_str(s: Scope) -> str:
    return "{" + ",".join(str(i) for i in s) + "}"


_FULL_SCOPE: Scope = (1, 2, 3)
_SCOPES: tuple[Scope, ...] = tuple(
    s for size in (1, 2, 3) for s in combinations(_FULL_SCOPE, size)
)
_Template = tuple[Constraint, Scope | None, tuple | None]


@cache
def _skeleton() -> tuple[tuple[AtomRef, ...], tuple[_Template, ...]]:
    """The three-source system before anything is measured, enumerated once,
    on first use: the 33 atoms, and one template per row that
    ``build_constraints`` can emit, in the order it emits them.

    A template is ``(row, subset, firing)``: the row with rhs 0; the subset
    whose measured I(subset;T) becomes its rhs, or None; and the structural
    firing the row needs, or None. Within a scope size the MutualSum rows
    come widest down-set first (the down-set grows with the subset), so an
    infeasible total trips at the full down-set.
    """
    one, minus = Fraction(1), Fraction(-1)
    full = _FULL_SCOPE
    nodes = {s: _relabel_nodes(len(s), s) for s in _SCOPES}
    refs = tuple(AtomRef(s, node) for s in _SCOPES for node in nodes[s])
    # Every row refers to the very objects in ``refs``, which lets
    # ``_compile`` resolve atoms by identity.
    canonical = {ref: ref for ref in refs}
    templates: list[_Template] = []

    def atom(scope: Scope, *elements) -> AtomRef:
        return canonical[AtomRef(scope, Antichain.of(elements))]

    def add(kind, terms, relation, provenance, subset=None, firing=None) -> None:
        row = Constraint(kind, tuple(terms), relation, Fraction(0), provenance)
        templates.append((row, subset, firing))

    def refinement(scope: Scope, alpha: Antichain, wider: Scope):
        """+alpha of ``scope``, then -beta for every atom beta of ``wider``
        whose elements inside ``scope`` form alpha, bottom-up."""
        betas = tuple(
            node for node in nodes[wider]
            if tuple(e for e in node.elements if set(e) <= set(scope)) == alpha.elements
        )
        # The betas form a chain: the fewer of them lie below one, the lower it is.
        chain = sorted(betas, key=lambda beta: sum(leq(other, beta) for other in betas))
        return (
            (canonical[AtomRef(scope, alpha)], one),
            *((canonical[AtomRef(wider, beta)], minus) for beta in chain),
        )

    for ref in refs:
        add("Nonnegativity", ((ref, minus),), "le", f"nonnegativity of {ref}")
    for i in full:
        add("SelfRedundancy", ((atom((i,), (i,)), one),), "eq",
            f"self-redundancy: information of source {i} about the target", subset=(i,))
    for i, j in combinations(full, 2):
        add(
            "IndependentIdentityZero",
            ((atom((i, j), (i,), (j,)), one),),
            "le",
            f"independent-identity: sources {i},{j} independent and target "
            f"equivalent to their join, so their shared atom vanishes",
            firing=("independent-identity", (i, j)),
        )
    for i in full:
        rest = tuple(x for x in full if x != i)
        for node in nodes[full]:
            if not any(set(e) <= set(rest) for e in node.elements):
                add(
                    "DeterminismZero",
                    ((canonical[AtomRef(full, node)], one),),
                    "le",
                    f"determinism: sources {rest[0]},{rest[1]} provide the whole "
                    f"system, atom {node} uses no piece of them",
                    firing=("determinism", i),
                )

    # Refinement identities across scopes: an atom of a scope against the
    # atoms one source up that restrict to it.
    for i, j in combinations(full, 2):
        pair: Scope = (i, j)
        for a in (i, j):
            add(
                "CrossScale",
                refinement((a,), Antichain.of([(a,)]), pair),
                "eq",
                f"cross-scale: source {a}'s information splits over scope "
                f"{_scope_str(pair)} into shared and exclusive parts",
            )
        add(
            "CrossScale",
            refinement(pair, Antichain.of([(i,), (j,)]), full),
            "eq",
            f"cross-scale: the shared atom of {_scope_str(pair)} splits into the "
            "all-way shared atom and the pair-only atom of the full scope",
        )
    for i, j in permutations(full, 2):
        add(
            "CrossScale",
            refinement(tuple(sorted((i, j))), Antichain.of([(i,)]), full),
            "eq",
            f"cross-scale: source {i}'s part exclusive of {j} splits at the "
            "full scope",
        )

    for width in (2, 3):
        for size in range(width, 0, -1):
            for scope in combinations(full, width):
                for subset in combinations(scope, size):
                    alpha = Antichain.of([subset])
                    add(
                        "MutualSum",
                        (
                            (canonical[AtomRef(scope, node)], one)
                            for node in nodes[scope]
                            if leq(node, alpha)
                        ),
                        "eq",
                        f"sum rule: atoms of scope {_scope_str(scope)} dominated by "
                        f"{_scope_str(subset)} add up to I({_scope_str(subset)};T)",
                        subset=subset,
                    )

    for i, j in combinations(full, 2):
        pair_red = atom((i, j), (i,), (j,))
        for single in (i, j):
            add(
                "Monotonicity",
                ((pair_red, one), (atom((single,), (single,)), minus)),
                "le",
                f"monotonicity: redundancy of {_scope_str((i, j))} cannot exceed "
                f"source {single}'s information",
            )
        add(
            "Monotonicity",
            ((atom(full, (1,), (2,), (3,)), one), (pair_red, minus)),
            "le",
            "monotonicity: all-way redundancy cannot exceed the redundancy of "
            f"{_scope_str((i, j))}",
        )
    return refs, tuple(templates)


def build_constraints(
    d: JointDistribution,
    sources: Sequence[GroupLike],
    target: GroupLike,
    mutual_sums: str = "all",
    tol: float = DEFAULT_TOLERANCE,
) -> DeductionState:
    """Assemble the constraint system for three source groups and a target.

    ``mutual_sums="all"`` anchors the down-set sum of every subset within
    every scope to its measured information; ``"singletons"`` anchors only
    single-source subsets, leaving multi-source sums tied across scopes by
    the cross-scale identities but not pinned to measured values.

    The rows are the templates of :func:`_skeleton`, in their order: a row
    whose structural rule did not fire is left out, and a measured row takes
    its measured information as rhs (or, under ``"singletons"``, is left out
    when its subset holds more than one source). Rows come grouped by kind,
    in the order Nonnegativity, SelfRedundancy, IndependentIdentityZero,
    DeterminismZero, CrossScale, MutualSum, Monotonicity. Propagation visits
    rows in this order, so it decides which row a contradiction trips at,
    and with it the certificate.
    """
    if len(sources) != 3:
        raise UnsupportedArity("the deduction engine supports exactly 3 sources")
    if mutual_sums not in ("all", "singletons"):
        raise ValueError(f"bad mutual_sums mode {mutual_sums!r}")
    groups = [d.resolve(s) for s in sources]
    tgt = d.resolve(target)
    names = tuple(
        "+".join(d.variables[i].name for i in g) for g in groups
    )
    target_name = "+".join(d.variables[i].name for i in tgt)
    refs, templates = _skeleton()

    def union_indices(scope: Scope) -> tuple[int, ...]:
        return tuple(sorted({i for member in scope for i in groups[member - 1]}))

    m = Measurement(d)
    mi = {s: _snap(m.mutual_information(union_indices(s), tgt), tol) for s in _SCOPES}

    # Exact structural facts about the distribution: the firing of each rule
    # that fired, with its human-readable note.
    fired: dict[tuple, str] = {}
    for i, j in combinations(_FULL_SCOPE, 2):
        union = union_indices((i, j))
        independent = m.is_independent(groups[i - 1], groups[j - 1])
        equivalent = m.is_deterministic(tgt, union) and m.is_deterministic(union, tgt)
        if independent and equivalent:
            fired["independent-identity", (i, j)] = (
                f"independent-identity fired for sources {i},{j}: independent pair, "
                "target informationally equivalent to their join"
            )
    for i in _FULL_SCOPE:
        rest = tuple(x for x in _FULL_SCOPE if x != i)
        covered = tuple(sorted(set(tgt) | set(groups[i - 1])))
        if m.is_deterministic(covered, union_indices(rest)):
            fired["determinism", i] = (
                f"determinism fired for source {i}: sources {rest[0]},{rest[1]} "
                f"determine the target and source {i}"
            )

    constraints = []
    for c, subset, firing in templates:
        if firing is not None and firing not in fired:
            continue
        if subset is not None:
            if mutual_sums == "singletons" and len(subset) > 1:
                continue
            c = Constraint(c.kind, c.terms, c.relation, mi[subset], c.provenance)
        constraints.append(c)
    return DeductionState(
        source_names=names,
        target_name=target_name,
        constraints=tuple(constraints),
        intervals={ref: Interval() for ref in refs},
        mutual_info=mi,
        mode=mutual_sums,
        firings=tuple(fired.values()),
    )


# --- propagation over the compiled rows ---------------------------------------
#
# Atoms are their positions in ``state.intervals``. Every value is scaled by
# L, the lcm of the denominators of every right-hand side and every finite
# starting bound; with coefficients of +1 and -1 only, every bound that
# propagation derives is an integer multiple of 1/L, so the fixed point runs
# on ints. Both bound lists hold upper bounds, ``hi[a] >= x_a`` and
# ``neg_lo[a] >= -x_a`` (None for infinity), so every tightening is a
# decrease. A compiled term of a row is ``(a, most, neg_least, most_side,
# least_side)``: the term's greatest value is ``most[a]``, its least is
# ``-neg_least[a]``, and the sides name the interval ends those come from.

_Term = tuple[int, list, list, str, str]
_Row = tuple[tuple[_Term, ...], int, bool]


def _compile(state: DeductionState) -> tuple[list[_Row], int, list, list]:
    """``state.constraints`` and ``state.intervals`` as integers over L:
    the compiled rows, L, and the bound lists ``hi`` and ``neg_lo``."""
    position = {ref: a for a, ref in enumerate(state.intervals)}
    # Rows from build_constraints share their AtomRef and coefficient objects,
    # so most terms resolve by identity, without hashing a dataclass or
    # comparing a Fraction; the lookups by value are the fallback.
    by_id = {id(ref): a for ref, a in position.items()}
    signs: dict[int, int] = {}
    denominators = {c.rhs.denominator for c in state.constraints}
    for iv in state.intervals.values():
        for bound in (iv.lo, iv.hi):
            if bound is not None:
                denominators.add(bound.denominator)
    scale = lcm(*denominators)

    def scaled(value: Fraction | None, sign: int) -> int | None:
        return None if value is None else sign * value.numerator * (scale // value.denominator)

    hi = [scaled(iv.hi, 1) for iv in state.intervals.values()]
    neg_lo = [scaled(iv.lo, -1) for iv in state.intervals.values()]
    plus, minus = (hi, neg_lo, "hi", "lo"), (neg_lo, hi, "lo", "hi")
    rows = []
    for cidx, c in enumerate(state.constraints):
        terms = []
        for ref, coeff in c.terms:
            a = by_id.get(id(ref))
            if a is None:
                a = position[ref]
            sign = signs.get(id(coeff))
            if sign is None:
                if coeff != 1 and coeff != -1:
                    raise ValueError(
                        f"constraint {cidx} ({c.kind}) has coefficient {coeff}; "
                        "propagation supports only +1 and -1"
                    )
                sign = signs[id(coeff)] = 1 if coeff > 0 else -1
            terms.append((a, *(plus if sign > 0 else minus)))
        rows.append((tuple(terms), scaled(c.rhs, 1), c.relation == "eq"))
    return rows, scale, hi, neg_lo


def _row_bounds(terms) -> tuple[int, int, int, int]:
    """Least and greatest finite LHS sums and how many terms are unbounded."""
    lo_sum = hi_sum = lo_missing = hi_missing = 0
    for a, most, neg_least, _, _ in terms:
        least = neg_least[a]
        if least is None:
            lo_missing += 1
        else:
            lo_sum -= least
        greatest = most[a]
        if greatest is None:
            hi_missing += 1
        else:
            hi_sum += greatest
    return lo_sum, lo_missing, hi_sum, hi_missing


def _used(terms, which: str, skip: int = -1) -> tuple[tuple[int, str], ...]:
    """Which interval sides gave the min (or max) of a row's LHS, leaving out
    the terms of atom ``skip``."""
    return tuple(
        (a, least_side if which == "min" else most_side)
        for a, _, _, most_side, least_side in terms
        if a != skip
    )


def propagate(state: DeductionState, max_passes: int = 200) -> DeductionState:
    """Tighten interval bounds to a fixed point; sets the state's status.

    Each pass checks every constraint for feasibility against the current
    box, then tightens each term through the constraint. Detection happens
    before application, so a contradiction never corrupts the intervals: the
    state freezes with every previously forced value intact.

    The passes run on the compiled integer rows (see :func:`_compile`). A row
    is skipped when its last check changed nothing and none of its atoms has
    moved since, which would repeat that check exactly. Raises ``ValueError``
    for a coefficient other than +1 or -1, and
    :class:`PropagationDidNotConverge`, with the bounds reached so far written
    back, when the last of ``max_passes`` passes still tightened a bound.
    """
    rows, scale, hi, neg_lo = _compile(state)
    rows_of: list[list[int]] = [[] for _ in hi]
    for cidx, (terms, _, _) in enumerate(rows):
        for a, *_ in terms:
            rows_of[a].append(cidx)
    stale = [True] * len(rows)
    trace = state._trace
    moved: set[tuple[int, str]] = set()

    def tighten(bounds: list, a: int, value: int, side: str, cidx: int, which: str):
        bounds[a] = value
        trace[a, side] = (value if side == "hi" else -value, scale, cidx, which)
        moved.add((a, side))
        for r in rows_of[a]:
            stale[r] = True

    def write_back() -> None:
        boxes = tuple(state.intervals.values())
        for a, side in moved:
            if side == "hi":
                boxes[a].hi = Fraction(hi[a], scale)
            else:
                boxes[a].lo = Fraction(-neg_lo[a], scale)

    def contradiction(cidx: int, side: str, lhs: int, which: str) -> DeductionState:
        write_back()
        state.status = "contradiction"
        state.certificate = _build_certificate(
            state, rows, cidx, side, Fraction(lhs, scale), which
        )
        state.propagated = True
        return state

    for _ in range(max_passes):
        changed = False
        for cidx, (terms, rhs, eq) in enumerate(rows):
            if not stale[cidx]:
                continue
            stale[cidx] = False
            lo_sum, lo_missing, hi_sum, hi_missing = _row_bounds(terms)
            if lo_missing == 0 and lo_sum > rhs:
                return contradiction(cidx, "min_exceeds_rhs", lo_sum, "min")
            if eq and hi_missing == 0 and hi_sum < rhs:
                return contradiction(cidx, "max_below_rhs", hi_sum, "max")
            for a, most, neg_least, most_side, least_side in terms:
                # With every other term bounded below, rhs minus their least
                # sum bounds this term from above (`==` on a bool: this term
                # is the one unbounded term, or there is none).
                least = neg_least[a]
                if lo_missing == (least is None):
                    bound = rhs - lo_sum - (least or 0)
                    if most[a] is None or bound < most[a]:
                        tighten(most, a, bound, most_side, cidx, "min")
                        changed = True
                        lo_sum, lo_missing, hi_sum, hi_missing = _row_bounds(terms)
                if eq:
                    # ... and on an equality, their greatest sum bounds it
                    # from below.
                    greatest = most[a]
                    if hi_missing == (greatest is None):
                        bound = hi_sum - (greatest or 0) - rhs
                        if neg_least[a] is None or bound < neg_least[a]:
                            tighten(neg_least, a, bound, least_side, cidx, "max")
                            changed = True
                            lo_sum, lo_missing, hi_sum, hi_missing = _row_bounds(terms)
        if not changed:
            break
    else:
        write_back()
        raise PropagationDidNotConverge(
            f"propagation did not converge in {max_passes} passes"
        )

    write_back()
    state.propagated = True
    state.status = (
        "solved"
        if all(h is not None and n is not None and h == -n for h, n in zip(hi, neg_lo))
        else "open"
    )
    return state


def _build_certificate(
    state: DeductionState,
    rows: list[_Row],
    violated_index: int,
    side: str,
    lhs_bound: Fraction,
    which: str,
) -> Certificate:
    """Justification closure of the bounds that make the constraint infeasible.

    ``state._trace`` keeps, per atom side, the last bound that improved it;
    the events are built here, from those records and the rows, only for
    the bounds the closure reaches.
    """
    refs = tuple(state.intervals)
    constraint_indices = {violated_index}
    events: list[BoundEvent] = []
    seen: set[tuple[int, str]] = set()
    queue = list(_used(rows[violated_index][0], which))
    while queue:
        key = queue.pop(0)
        if key in seen:
            continue
        seen.add(key)
        record = state._trace.get(key)
        if record is None:
            continue
        value, scale, cidx, producer_which = record
        used = _used(rows[cidx][0], producer_which, skip=key[0])
        events.append(
            BoundEvent(
                refs[key[0]],
                key[1],
                Fraction(value, scale),
                cidx,
                tuple((refs[a], s) for a, s in used),
            )
        )
        constraint_indices.add(cidx)
        queue.extend(used)
    return Certificate(
        violated_index=violated_index,
        side=side,
        lhs_bound=lhs_bound,
        rhs=state.constraints[violated_index].rhs,
        constraint_indices=tuple(sorted(constraint_indices)),
        events=tuple(events),
    )


def replay_certificate(state: DeductionState) -> bool:
    """Re-run propagation with only the certificate's constraints; the same
    contradiction must reappear for the certificate to be sound."""
    cert = state.certificate
    if cert is None:
        return False
    subset = tuple(state.constraints[i] for i in cert.constraint_indices)
    fresh = DeductionState(
        source_names=state.source_names,
        target_name=state.target_name,
        constraints=subset,
        intervals={ref: Interval() for ref in state.intervals},
        mutual_info=dict(state.mutual_info),
        mode=state.mode,
        firings=state.firings,
    )
    propagate(fresh)
    return fresh.status == "contradiction"


def assignment_violations(
    state: DeductionState, values: dict[AtomRef, Fraction]
) -> tuple[tuple[Constraint, Fraction], ...]:
    """Constraints a full point assignment fails, with the offending sums."""
    out = []
    for c in state.constraints:
        lhs = sum((coeff * values[ref] for ref, coeff in c.terms), Fraction(0))
        if (c.relation == "eq" and lhs != c.rhs) or (
            c.relation == "le" and lhs > c.rhs
        ):
            out.append((c, lhs))
    return tuple(out)


def wesp_report(state: DeductionState) -> WespReport:
    """Compare I(S;T) with the forced lower bound of the full-scope atom sum."""
    if not state.propagated:
        raise StateStillOpen("run propagate() before requesting a report")
    lower = Fraction(0)
    for ref in state.full_scope_refs():
        lo = state.intervals[ref].lo
        if lo is not None and lo > 0:
            lower += lo
    total_mi = state.mutual_info[_FULL_SCOPE]
    gap = lower - total_mi
    violated = gap > 0
    return WespReport(
        mutual_information=total_mi,
        atom_lower_bound=lower,
        gap=gap if violated else Fraction(0),
        violated=violated,
        certificate=state.certificate,
    )
