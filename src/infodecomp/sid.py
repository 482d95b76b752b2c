"""Closed-form system information decomposition for three variables.

The ten atoms over the half lattice are pinned by nine linear sum rules once
a single atom — the three-way redundancy — is supplied. The closed form
solves that system identically in the seven joint entropies and the injected
redundancy, so the construction is parametric in the redundancy measure:
the Gács-Körner value from :mod:`infodecomp.redundancy` is the default, but
any alternative can be injected without touching the solver.

Atom values may be negative; they are reported, never clamped. All algebra
runs on exact rationals: an :class:`EntropyVector` turns each entropy into a
``Fraction`` once (a float embeds exactly), and every tolerance test compares
an exact difference with the tolerance, so a tolerance of 0 passes every
check that holds exactly in the stored values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from typing import Sequence

from .dist import DEFAULT_TOLERANCE, GroupLike, JointDistribution, Measurement
from .errors import AxiomViolated, NegativeRedundancy, RankDeficient, ResidualTooLarge
from .lattice import Antichain
from .redundancy import common_partition

#: Atom ordering of the unknown vector in the 9x10 summation-rule system.
ATOM_ORDER: tuple[Antichain, ...] = (
    Antichain.of([(1,), (2,), (3,)]),
    Antichain.of([(1,), (2,)]),
    Antichain.of([(1,), (3,)]),
    Antichain.of([(2,), (3,)]),
    Antichain.of([(1,), (2, 3)]),
    Antichain.of([(2,), (1, 3)]),
    Antichain.of([(3,), (1, 2)]),
    Antichain.of([(1,)]),
    Antichain.of([(2,)]),
    Antichain.of([(3,)]),
)

#: Coefficients of the nine sum rules over ATOM_ORDER. Rows 1-3 decompose
#: single-variable entropies, rows 4-6 pair entropies, rows 7-9 the joint
#: entropy with each two-versus-one synergy atom excluded in turn.
SUM_RULE_MATRIX: tuple[tuple[int, ...], ...] = (
    (1, 1, 1, 0, 1, 0, 0, 1, 0, 0),
    (1, 1, 0, 1, 0, 1, 0, 0, 1, 0),
    (1, 0, 1, 1, 0, 0, 1, 0, 0, 1),
    (1, 1, 1, 1, 1, 1, 0, 1, 1, 0),
    (1, 1, 1, 1, 1, 0, 1, 1, 0, 1),
    (1, 1, 1, 1, 0, 1, 1, 0, 1, 1),
    (1, 1, 1, 1, 1, 1, 0, 1, 1, 1),
    (1, 1, 1, 1, 1, 0, 1, 1, 1, 1),
    (1, 1, 1, 1, 0, 1, 1, 1, 1, 1),
)

_SYNERGY_ATOMS = ATOM_ORDER[4:7]

#: Sum-rule labels in SUM_RULE_MATRIX row order; rows 7-9 leave out the
#: synergy atoms last to first.
_RULE_LABELS: tuple[str, ...] = (
    *(f"H(S{k}) down-set sum" for k in (1, 2, 3)),
    *(f"H(S{i},S{k}) dominated-atom sum" for i, k in ((1, 2), (1, 3), (2, 3))),
    *(f"H(S1,S2,S3) = sigma - psi({atom})" for atom in reversed(_SYNERGY_ATOMS)),
)


@dataclass(frozen=True)
class EntropyVector:
    """The seven joint entropies of a three-variable system, in bits, as Fractions."""

    h1: Fraction
    h2: Fraction
    h3: Fraction
    h12: Fraction
    h13: Fraction
    h23: Fraction
    h123: Fraction

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, Fraction(getattr(self, f.name)))

    @classmethod
    def from_distribution(
        cls, d: JointDistribution, s1: GroupLike, s2: GroupLike, s3: GroupLike
    ) -> "EntropyVector":
        """Measure the seven entropies, exactly where the masses allow it."""
        groups = [d.resolve(s) for s in (s1, s2, s3)]
        m = Measurement(d)

        def h(*which: int) -> Fraction | float:
            return m.entropy(tuple(sorted({i for w in which for i in groups[w]})))

        return cls(h(0), h(1), h(2), h(0, 1), h(0, 2), h(1, 2), h(0, 1, 2))

    def rhs(self) -> tuple[Fraction, ...]:
        """Right-hand sides of the nine sum rules."""
        return (self.h1, self.h2, self.h3, self.h12, self.h13, self.h23) + (self.h123,) * 3

    def validate(self, tol: float = DEFAULT_TOLERANCE) -> None:
        """Check monotonicity and submodularity over all subset pairs, comparing
        each exact excess with ``tol``. Pairs whose inequality is an identity
        are skipped: equal sets for monotonicity, nested sets for submodularity.
        """
        if not tol >= 0:
            raise ValueError(f"tolerance must be >= 0, got {tol}")
        if tol == math.inf:
            return
        # One conversion here, not one per comparison with a float.
        tol = Fraction(tol)
        h = {
            frozenset(): Fraction(0),
            frozenset({1}): self.h1,
            frozenset({2}): self.h2,
            frozenset({3}): self.h3,
            frozenset({1, 2}): self.h12,
            frozenset({1, 3}): self.h13,
            frozenset({2, 3}): self.h23,
            frozenset({1, 2, 3}): self.h123,
        }
        for a in h:
            for b in h:
                if a < b and h[a] - h[b] > tol:
                    raise ValueError(f"entropy not monotone: H{set(a)} > H{set(b)}")
                if not (a <= b or b <= a) and h[a | b] + h[a & b] - h[a] - h[b] > tol:
                    raise ValueError(
                        f"entropy not submodular on {set(a)}, {set(b)}"
                    )


@dataclass(frozen=True)
class SIAtomTable:
    """The ten decomposition atoms of a three-variable system."""

    atoms: tuple[tuple[Antichain, Fraction], ...]
    red: Fraction

    def value(self, antichain: Antichain) -> Fraction:
        for key, v in self.atoms:
            if key == antichain:
                return v
        raise KeyError(f"{antichain} is not a half-lattice atom")

    def as_dict(self) -> dict[Antichain, Fraction]:
        return dict(self.atoms)

    def vector(self) -> tuple[Fraction, ...]:
        return tuple(v for _, v in self.atoms)

    def total(self) -> Fraction:
        return sum(self.vector(), Fraction(0))

    def synergy_atoms(self) -> tuple[tuple[Antichain, Fraction], ...]:
        return tuple((a, self.value(a)) for a in _SYNERGY_ATOMS)


def si_atoms(
    ev: EntropyVector, red: Fraction | float, tol: float = DEFAULT_TOLERANCE
) -> SIAtomTable:
    """Solve all ten atoms from the entropy vector and an injected redundancy.

    The closed form:

        psi({1}{2}{3})  = red
        psi({i}{j})     = H(Si) + H(Sj) - H(Si,Sj) - red
        psi({i}{jk})    = -H(S1) - H(S2) - H(S3) + H(S1,S2) + H(S1,S3)
                          + H(S2,S3) - H(S1,S2,S3) + red      (same for all i)
        psi({i})        = H(S1,S2,S3) - H(Sj,Sk)
    """
    ev.validate(tol)
    r = Fraction(red)
    if r < 0:
        raise NegativeRedundancy(f"injected redundancy {red} is negative")
    h1, h2, h3, h12, h13, h23, h123 = (
        ev.h1, ev.h2, ev.h3, ev.h12, ev.h13, ev.h23, ev.h123
    )
    synergy = -h1 - h2 - h3 + h12 + h13 + h23 - h123 + r
    values = (
        r,
        h1 + h2 - h12 - r,
        h1 + h3 - h13 - r,
        h2 + h3 - h23 - r,
        synergy,
        synergy,
        synergy,
        h123 - h23,
        h123 - h13,
        h123 - h12,
    )
    return SIAtomTable(tuple(zip(ATOM_ORDER, values)), r)


def _measure_and_solve(
    d: JointDistribution,
    groups: tuple[GroupLike, GroupLike, GroupLike],
    red: Fraction | float | None,
    tol: float,
) -> tuple[EntropyVector, SIAtomTable]:
    """The entropy vector, measured once, and the table :func:`decompose` solves."""
    ev = EntropyVector.from_distribution(d, *groups)
    if red is None:
        red = common_partition(d, list(groups)).value
    return ev, si_atoms(ev, red, tol)


def decompose(
    d: JointDistribution,
    s1: GroupLike,
    s2: GroupLike,
    s3: GroupLike,
    red: Fraction | float | None = None,
    tol: float = DEFAULT_TOLERANCE,
) -> SIAtomTable:
    """Measure entropies, default the redundancy to the common-partition value,
    and solve the atom table."""
    return _measure_and_solve(d, (s1, s2, s3), red, tol)[1]


def exact_rank(matrix: Sequence[Sequence[int | Fraction]]) -> int:
    """Row rank by fraction-free Gaussian elimination, exact on ints and
    Fractions."""
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][col]
        for i in range(len(rows)):
            factor = rows[i][col]
            if i != rank and factor != 0:
                rows[i] = [head * a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


@cache
def _sum_rule_rank() -> int:
    """Rank of the constant sum-rule matrix, computed on first use."""
    return exact_rank(SUM_RULE_MATRIX)


def _rule_sums(table: SIAtomTable) -> tuple[Fraction, ...]:
    """The nine sum-rule left-hand sides: SUM_RULE_MATRIX times the atom vector."""
    x = table.vector()
    return tuple(
        sum((c * v for c, v in zip(row, x)), Fraction(0)) for row in SUM_RULE_MATRIX
    )


@dataclass(frozen=True)
class LinearSystemReport:
    residuals: tuple[Fraction, ...]
    rank: int
    max_residual: float


def verify_linear_system(
    ev: EntropyVector, table: SIAtomTable, tol: float = DEFAULT_TOLERANCE
) -> LinearSystemReport:
    """Multiply the sum-rule matrix by the atom vector and compare with the
    entropy right-hand sides; also confirm the matrix has full row rank."""
    rank = _sum_rule_rank()
    if rank != 9:
        raise RankDeficient(f"sum-rule matrix rank {rank}, expected 9")
    residuals = tuple(lhs - y for lhs, y in zip(_rule_sums(table), ev.rhs()))
    worst = max(map(abs, residuals))
    if worst > tol:
        raise ResidualTooLarge(f"max sum-rule residual {float(worst)} exceeds {tol}")
    return LinearSystemReport(residuals, rank, float(worst))


@dataclass(frozen=True)
class SumRuleCheck:
    label: str
    lhs: Fraction
    rhs: Fraction

    @property
    def residual(self) -> Fraction:
        return self.lhs - self.rhs


@dataclass(frozen=True)
class SumRuleReport:
    table: SIAtomTable
    per_variable: tuple[SumRuleCheck, ...]
    per_pair: tuple[SumRuleCheck, ...]
    total: tuple[SumRuleCheck, ...]
    sigma: Fraction

    def all_checks(self) -> tuple[SumRuleCheck, ...]:
        return self.per_variable + self.per_pair + self.total


def check_sum_rules(
    d: JointDistribution,
    s1: GroupLike,
    s2: GroupLike,
    s3: GroupLike,
    red: Fraction | float | None = None,
    tol: float = DEFAULT_TOLERANCE,
) -> SumRuleReport:
    """Verify the nine entropy sum rules, the rows of SUM_RULE_MATRIX.

    Per-variable (rows 1-3): H(Sk) equals the sum over the down-set of {{k}}.
    Per-pair (rows 4-6): H(Si,Sk) equals the sum of atoms dominated by {{i}}
    or {{k}}.
    Total (rows 7-9): H(S1,S2,S3) equals the sum of all ten atoms minus each
    two-versus-one synergy atom in turn, for all three exclusion choices.
    Raises :class:`AxiomViolated` naming the first rule whose residual
    exceeds the tolerance.
    """
    ev, table = _measure_and_solve(d, (s1, s2, s3), red, tol)
    checks = tuple(
        SumRuleCheck(label, lhs, rhs)
        for label, lhs, rhs in zip(_RULE_LABELS, _rule_sums(table), ev.rhs())
    )
    # The report lists the total rules in synergy-atom order: rows 9, 8, 7.
    report = SumRuleReport(table, checks[:3], checks[3:6], checks[:5:-1], table.total())
    for check in report.all_checks():
        if abs(check.residual) > tol:
            raise AxiomViolated(check.label, float(check.residual))
    return report


@dataclass(frozen=True)
class SynergySumResult:
    synergy_sum: Fraction
    joint_entropy: Fraction
    violates_wesp: bool


def synergy_sum_check(
    d: JointDistribution,
    s1: GroupLike,
    s2: GroupLike,
    s3: GroupLike,
    red: Fraction | float | None = None,
    tol: float = DEFAULT_TOLERANCE,
) -> SynergySumResult:
    """Sum the three two-versus-one synergy atoms against the joint entropy.

    A sum strictly above the joint entropy is the whole-versus-parts
    violation: the decomposed parts carry more than the whole.
    """
    ev, table = _measure_and_solve(d, (s1, s2, s3), red, tol)
    total = sum((v for _, v in table.synergy_atoms()), Fraction(0))
    return SynergySumResult(total, ev.h123, total - ev.h123 > tol)
